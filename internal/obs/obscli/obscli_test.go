package obscli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpcc/internal/obs"
)

// setupCLI binds the flags on a fresh FlagSet, parses args, and runs
// Setup.
func setupCLI(t *testing.T, args ...string) *CLI {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Bind(fs, io.Discard)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDisabledDefault pins the zero-overhead default: no flags, nil
// config, nil recorder, and Close is a no-op.
func TestDisabledDefault(t *testing.T) {
	c := setupCLI(t)
	if c.Config() != nil {
		t.Error("no flags must yield a nil obs.Config")
	}
	if r := c.Recorder("x"); r != nil {
		t.Error("disabled CLI handed out a live recorder")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndArtifacts drives the full flag surface — JSONL trace,
// Chrome export, summary manifest, invariants with their flight
// recorder — through one simulated run and checks every artifact
// lands on disk well-formed.
func TestEndToEndArtifacts(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	chrome := filepath.Join(dir, "run.chrome.json")
	summary := filepath.Join(dir, "run.summary.json")
	c := setupCLI(t,
		"-trace", trace, "-trace-chrome", chrome,
		"-obs-summary", summary, "-obs-invariants")

	if cfg := c.Config(); cfg == nil || !cfg.Invariants {
		t.Fatal("-obs-invariants must turn invariant checks on")
	}
	rec := c.Recorder("engine")
	sp := rec.Span("step")
	rec.Probe("q", 0.5, 1.0)
	rec.Count("steps", 3)
	sp.End()
	// A second recorder created straight from the config (the suite
	// runner's path) must appear in the manifest via OnRecorder.
	c.Config().Recorder("suite").Count("experiments", 2)

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"probe"`) {
		t.Error("JSONL trace has no probe line")
	}

	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	craw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(craw, &tf); err != nil {
		t.Fatalf("chrome trace does not decode: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Error("chrome trace is empty")
	}

	sraw, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	var man obs.Summary
	if err := json.Unmarshal(sraw, &man); err != nil {
		t.Fatalf("summary manifest does not decode: %v", err)
	}
	if man.Scope != "run" || man.Resources == nil {
		t.Fatalf("manifest root = %+v, want scope run with resources", man)
	}
	scopes := map[string]*obs.Summary{}
	for _, ch := range man.Children {
		scopes[ch.Scope] = ch
	}
	if s := scopes["engine"]; s == nil || s.Counters["steps"] != 3 {
		t.Errorf("manifest engine child = %+v, want steps=3", scopes["engine"])
	}
	if s := scopes["suite"]; s == nil || s.Counters["experiments"] != 2 {
		t.Errorf("manifest suite child = %+v, want experiments=2 (OnRecorder registration)", scopes["suite"])
	}
}

// TestChromeOnlyCapture pins the in-memory path: -trace-chrome with
// no -trace still produces a trace via the buffered sink.
func TestChromeOnlyCapture(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "only.chrome.json")
	c := setupCLI(t, "-trace-chrome", chrome)
	rec := c.Recorder("solo")
	rec.Probe("p", 1, 2)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"traceEvents"`) {
		t.Error("chrome-only export missing traceEvents")
	}
}

// TestDumpViolationWritesToStderr: the flight-recorder post-mortem of
// an invariant violation goes to the writer Bind was handed — a cmd's
// run(args, stdout, stderr) — with one JSONL line per buffered event;
// any other error dumps nothing.
func TestDumpViolationWritesToStderr(t *testing.T) {
	var stderr bytes.Buffer
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Bind(fs, &stderr)
	if err := fs.Parse([]string{"-obs-invariants"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Setup(); err != nil {
		t.Fatal(err)
	}
	rec := c.Recorder("engine")
	rec.Probe("q", 0.5, 1)
	rec.Probe("q", 1.0, 2)
	err := rec.CheckNonNegative(7, 1.5, "density", []float64{1, -1})
	if err == nil {
		t.Fatal("a negative value passed CheckNonNegative")
	}
	c.DumpViolation(errors.New("not a violation"))
	if stderr.Len() != 0 {
		t.Fatalf("a plain error dumped %q", stderr.String())
	}
	c.DumpViolation(err)
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if want := "obs: flight recorder: 2 events preceding the violation of density (step 7, t=1.5):"; lines[0] != want {
		t.Fatalf("dump heading %q, want %q", lines[0], want)
	}
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want the heading and 2 events:\n%s", len(lines), stderr.String())
	}
	for _, l := range lines[1:] {
		var ev obs.Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil || ev.Name != "q" {
			t.Errorf("dump line %q: event %+v, error %v, want a probe of q", l, ev, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

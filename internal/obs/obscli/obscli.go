// Package obscli is the shared observability flag layer every cmd
// binds (see CLI). Probes sample every obs.DefaultProbeDt simulation
// seconds, and -obs-invariants also arms each recorder's flight ring.
// The package lives one level below internal/obs so it can wire the
// recorder layer to the HTTP monitoring surface (obshttp) and the
// Chrome trace exporter (chrometrace) without an import cycle.
package obscli

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"

	"fpcc/internal/obs"
	"fpcc/internal/obs/chrometrace"
	"fpcc/internal/obs/obshttp"
)

// CLI is the shared observability flag set every cmd binds:
//
//	-trace out.jsonl     stream probe/span/counter events as JSONL
//	                     (probes every obs.DefaultProbeDt sim seconds)
//	-trace-chrome out    export the run's trace as Chrome trace_event
//	                     JSON (Perfetto-loadable); works with or
//	                     without -trace
//	-obs-listen addr     serve /metrics (Prometheus), /summary,
//	                     /debug/vars and /debug/pprof from the
//	                     running process (turns the recorder on)
//	-obs-summary out     write the end-of-run obs.Summary manifest
//	-obs-invariants      run per-step invariant checks (fail fast);
//	                     each recorder keeps its most recent events
//	                     and dumps them when an invariant fires
//
// Bind the flags with Bind before flag.Parse, call Setup after, hand
// Recorder(scope) to the engine configs, and defer Close.
type CLI struct {
	tracePath   string
	chromePath  string
	listenAddr  string
	summaryPath string
	invariants  bool

	sink      *obs.JSONL
	traceFile *os.File
	traceMem  *bytes.Buffer // backs the sink when -trace-chrome is set without -trace
	httpSrv   *obshttp.Server
	cfg       *obs.Config

	mu sync.Mutex
	// registered holds every root recorder created from the config —
	// including those the suite runner creates internally, via the
	// Config.OnRecorder hook — for the monitoring surface and the
	// summary manifest. handed holds only the recorders this CLI
	// handed out directly; Close flushes those (the suite runner
	// flushes its own, and Flush is not idempotent).
	registered []*obs.Recorder
	handed     []*obs.Recorder
}

// Bind registers the observability flags on fs and returns the CLI
// holding them.
func Bind(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.tracePath, "trace", "", "stream observability events (probes, spans, violations) as JSONL to this file")
	fs.StringVar(&c.chromePath, "trace-chrome", "", "export the run's event trace as Chrome trace_event JSON to this file (Perfetto-loadable; works without -trace)")
	fs.StringVar(&c.listenAddr, "obs-listen", "", "serve live Prometheus /metrics, /summary, /debug/vars and /debug/pprof on this address (e.g. localhost:9190)")
	fs.StringVar(&c.summaryPath, "obs-summary", "", "write the end-of-run obs.Summary JSON manifest (aggregates merged over the recorder hierarchy) to this file")
	fs.BoolVar(&c.invariants, "obs-invariants", false, "run per-step invariant checks (mass budgets, non-negativity, CFL, history monotonicity); fail fast on violation, dumping the recorder's recent events")
	return c
}

// Setup opens the trace destinations and starts the monitoring
// server per the parsed flags. Call it once, after flag parsing.
func (c *CLI) Setup() error {
	switch {
	case c.tracePath != "":
		f, err := os.Create(c.tracePath)
		if err != nil {
			return fmt.Errorf("obs: creating trace file: %w", err)
		}
		c.traceFile = f
		c.sink = obs.NewJSONL(f)
	case c.chromePath != "":
		// No JSONL destination, but the exporter needs the event
		// stream: record it in memory for conversion at Close.
		c.traceMem = &bytes.Buffer{}
		c.sink = obs.NewJSONL(c.traceMem)
	}
	if c.sink != nil || c.invariants || c.listenAddr != "" || c.summaryPath != "" {
		c.cfg = &obs.Config{Sink: c.sink, Invariants: c.invariants, OnRecorder: c.register}
	}
	if c.listenAddr != "" {
		c.httpSrv = obshttp.New()
		addr, err := c.httpSrv.Start(c.listenAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "obs: serving /metrics (Prometheus), /summary (JSON), /debug/vars (memstats), /debug/pprof on http://%s\n", addr)
	}
	return nil
}

// Config returns the observability config the flags selected, or nil
// when no observability flag was set (the zero-overhead default).
func (c *CLI) Config() *obs.Config { return c.cfg }

// register observes every root recorder created from the config (the
// OnRecorder hook): it joins the -obs-listen monitoring surface and
// the -obs-summary manifest.
func (c *CLI) register(r *obs.Recorder) {
	c.mu.Lock()
	c.registered = append(c.registered, r)
	c.mu.Unlock()
	if c.httpSrv != nil {
		c.httpSrv.Attach(r)
	}
}

// Recorder returns a recorder under the given scope, or nil when
// observability is disabled. Recorders join the -obs-listen
// monitoring surface as they are created; Close flushes the ones
// handed out here.
func (c *CLI) Recorder(scope string) *obs.Recorder {
	r := c.cfg.Recorder(scope)
	if r != nil {
		c.mu.Lock()
		c.handed = append(c.handed, r)
		c.mu.Unlock()
	}
	return r
}

// DumpViolation prints the flight-recorder context attached to an
// invariant violation — the events the failing recorder buffered
// before the fault — to stderr, as JSONL. It is a no-op for other
// errors (including violations recorded without -obs-invariants),
// so cmds call it unconditionally on their run-error path.
func (c *CLI) DumpViolation(err error) {
	var v *obs.Violation
	if !errors.As(err, &v) || len(v.Recent) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "obs: flight recorder: %d events preceding the violation of %s (step %d, t=%g):\n",
		len(v.Recent), v.Field, v.Step, v.T)
	enc := json.NewEncoder(os.Stderr)
	for _, ev := range v.Recent {
		enc.Encode(ev)
	}
}

// Fatal is the cmds' fatal-error exit: it dumps any flight-recorder
// context attached to err, closes the observability layer — so the
// trace, Chrome export and summary manifest survive for the
// post-mortem — and exits 1. (log.Fatalf would skip the deferred
// Close and lose all of that.) err is printed as it is, since package
// errors already carry their package's name; prefix, the command's
// name, heads only the message Fatal writes itself.
func (c *CLI) Fatal(prefix string, err error) {
	c.DumpViolation(err)
	if cerr := c.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "%s: closing observability: %v\n", prefix, cerr)
	}
	log.Fatal(err)
}

// Close flushes summary events for every recorder handed out, writes
// the -obs-summary manifest and the -trace-chrome export, closes the
// trace file, and stops the monitoring server.
func (c *CLI) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	c.mu.Lock()
	handed := append([]*obs.Recorder(nil), c.handed...)
	c.mu.Unlock()
	for _, r := range handed {
		keep(r.Flush())
	}
	if c.sink != nil {
		keep(c.sink.Flush())
	}
	if c.summaryPath != "" {
		keep(c.writeSummary())
	}
	if c.traceFile != nil {
		keep(c.traceFile.Close())
		c.traceFile = nil
	}
	if c.chromePath != "" {
		keep(c.writeChromeTrace())
	}
	if c.httpSrv != nil {
		keep(c.httpSrv.Close())
		c.httpSrv = nil
	}
	return first
}

// writeSummary assembles the run manifest — one child per registered
// recorder, under a root carrying whole-process resource totals —
// and writes it as indented JSON.
func (c *CLI) writeSummary() error {
	res := obs.ReadResources()
	root := &obs.Summary{Scope: "run", Resources: &res}
	c.mu.Lock()
	registered := append([]*obs.Recorder(nil), c.registered...)
	c.mu.Unlock()
	for _, r := range registered {
		if s := r.Summary(); s != nil {
			root.Children = append(root.Children, s)
		}
	}
	f, err := os.Create(c.summaryPath)
	if err != nil {
		return fmt.Errorf("obs: creating summary manifest: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(root); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing summary manifest: %w", err)
	}
	return f.Close()
}

// writeChromeTrace converts the run's JSONL stream (the -trace file,
// or the in-memory capture when -trace was not set) into a Chrome
// trace_event file.
func (c *CLI) writeChromeTrace() error {
	var src io.Reader
	if c.traceMem != nil {
		src = bytes.NewReader(c.traceMem.Bytes())
	} else {
		f, err := os.Open(c.tracePath)
		if err != nil {
			return fmt.Errorf("obs: reopening trace for chrome export: %w", err)
		}
		defer f.Close()
		src = f
	}
	out, err := os.Create(c.chromePath)
	if err != nil {
		return fmt.Errorf("obs: creating chrome trace: %w", err)
	}
	if err := chrometrace.Convert(src, out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

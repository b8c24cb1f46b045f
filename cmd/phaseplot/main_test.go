package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocumentedExamples runs both documented invocations and
// -portrait on short horizons: stdout must match testdata byte for
// byte, and the exact trace ends with the final-state note on stderr.
func TestDocumentedExamples(t *testing.T) {
	for _, c := range []struct {
		args, golden, stderr string
	}{
		{"-mu 10 -c0 2 -c1 0.8 -qhat 20 -q0 0 -lambda0 2 -t 20 -samples 100", "spiral.tsv",
			"phaseplot: limit point (q̂, μ) = (20.00, 10.00); final state (16.7897, 11.8735)\n"},
		{"-delay 2 -t 40 -samples 100", "delay.tsv", ""},
		{"-portrait -t 20 -samples 100", "portrait.tsv", ""},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(c.args), &stdout, &stderr); err != nil {
			t.Errorf("%s: %v", c.args, err)
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stdout.Bytes(), want) {
			t.Errorf("%s: stdout differs from testdata/%s:\n%s", c.args, c.golden, stdout.String())
		}
		if stderr.String() != c.stderr {
			t.Errorf("%s: stderr %q, want %q", c.args, stderr.String(), c.stderr)
		}
	}
}

// TestTraceStopsEarly: when the segment budget runs out in the Zeno
// spiral before -t, stderr says where the trace stopped.
func TestTraceStopsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("500000-segment trace")
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-t", "3000", "-samples", "10"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	want := "phaseplot: the exact trace stops at t=225.86 of 3000: its 500000-segment budget ran out\n"
	if !strings.HasPrefix(stderr.String(), want) {
		t.Fatalf("stderr %q, want it to open with %q", stderr.String(), want)
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != 12 {
		t.Fatalf("%d stdout lines, want a header and 11 samples", lines)
	}
}

// TestRejectedInvocations: a start-point flag with -portrait, which
// ignores it, and a start the tracer rejects are errors with nothing
// on stdout.
func TestRejectedInvocations(t *testing.T) {
	for _, args := range []string{
		"-portrait -q0 5",
		"-portrait -lambda0 3",
		"-portrait -delay 2",
		"-q0 NaN",
		"-mu Inf",
		"-t 0",
	} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(args), &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) {
			t.Errorf("%s: error %v, want a run error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout", args, stdout.String())
		}
	}
}

// TestBadFlag: an undefined flag is a usage error (exit 2), printed
// once, by the flag set, with the usage.
func TestBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Fatalf("error %v, want errUsage", err)
	}
	if n := strings.Count(stderr.String(), "flag provided but not defined: -bogus"); n != 1 || stdout.Len() != 0 {
		t.Fatalf("error printed %d times, stdout %q; stderr:\n%s", n, stdout.String(), stderr.String())
	}
}

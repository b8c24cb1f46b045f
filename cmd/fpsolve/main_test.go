package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckTimes(t *testing.T) {
	for _, tc := range []struct {
		horizon, every float64
		bad            string // the flag named in the error, or "" when accepted
	}{
		{50, 1, ""},
		{0.5, 0.25, ""},
		{50, 0, "-every"},
		{50, -1, "-every"},
		{50, math.NaN(), "-every"},
		{50, math.Inf(1), "-every"},
		{-5, 1, "-t"},
		{0, 1, "-t"},
		{math.NaN(), 1, "-t"},
		{math.Inf(1), 1, "-t"},
	} {
		err := checkTimes(tc.horizon, tc.every)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("-t %v -every %v: %v", tc.horizon, tc.every, err)
		case tc.bad != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.bad+" ")):
			t.Errorf("-t %v -every %v: error %v, want one naming %s", tc.horizon, tc.every, err, tc.bad)
		}
	}
}

// TestDocumentedExample runs the package doc's invocation on a 10 s
// horizon, with and without -marginal: stdout must match testdata
// byte for byte and stderr stay empty.
func TestDocumentedExample(t *testing.T) {
	const args = "-mu 10 -c0 2 -c1 0.8 -qhat 20 -sigma 1.5 -t 10"
	for _, c := range []struct{ args, golden string }{
		{args, "moments.tsv"},
		{args + " -marginal", "marginal.tsv"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if err := run(strings.Fields(c.args), &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if !bytes.Equal(stdout.Bytes(), want) || stderr.Len() != 0 {
			t.Errorf("%s: stdout differs from testdata/%s or stderr not empty:\n%s%s",
				c.args, c.golden, stdout.String(), stderr.String())
		}
	}
}

// TestBadFlag: an undefined flag, -tau included, is a usage error
// (exit 2), printed once, by the flag set, with the usage.
func TestBadFlag(t *testing.T) {
	for _, flag := range []string{"-bogus", "-tau"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{flag, "1"}, &stdout, &stderr); !errors.Is(err, errUsage) {
			t.Fatalf("%s: error %v, want errUsage", flag, err)
		}
		if n := strings.Count(stderr.String(), "flag provided but not defined: "+flag); n != 1 || stdout.Len() != 0 {
			t.Fatalf("%s: error printed %d times, stdout %q; stderr:\n%s", flag, n, stdout.String(), stderr.String())
		}
	}
}

// TestRejectedInvocations: a bad horizon, a grid or law the solver
// rejects, and a step the solver refuses are run errors (exit 1). A
// failure after the observability layer is set up still closes it, so
// the -obs-summary manifest is written for the post-mortem. Every
// observability notice goes to the stderr run was handed: the
// -obs-listen address, and no flight-recorder dump for an error that
// is not an invariant violation, though -obs-invariants is on.
func TestRejectedInvocations(t *testing.T) {
	for _, c := range []struct {
		args   string
		lines  int    // stdout lines printed before the failure
		setUp  bool   // whether the failure follows the observability set-up
		stderr string // the prefix of everything written to stderr
	}{
		{"-t 0", 0, false, ""},
		{"-nq 2", 0, true, ""},
		{"-c0 -1", 0, true, ""},
		// σ = 10⁵ makes the first step's q-diffusion number exceed
		// the solver's bound, after the header and the t = 0 row.
		{"-sigma 1e5 -t 1", 2, true, ""},
		{"-obs-listen 127.0.0.1:0 -nq 2", 0, true, "obs: serving /metrics (Prometheus), /summary (JSON), /debug/vars (memstats), /debug/pprof on http://127.0.0.1:"},
	} {
		summary := filepath.Join(t.TempDir(), "summary.json")
		var stdout, stderr bytes.Buffer
		err := run(append(strings.Fields(c.args), "-obs-summary", summary, "-obs-invariants"), &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) {
			t.Errorf("%s: error %v, want a run error", c.args, err)
		}
		if n := strings.Count(stdout.String(), "\n"); n != c.lines {
			t.Errorf("%s: %d stdout lines, want %d:\n%s", c.args, n, c.lines, stdout.String())
		}
		if _, serr := os.Stat(summary); c.setUp != (serr == nil) {
			t.Errorf("%s: summary manifest written: %v, want %v", c.args, serr == nil, c.setUp)
		}
		got := stderr.String()
		ok := got == ""
		if c.stderr != "" {
			ok = strings.HasPrefix(got, c.stderr) && strings.Count(got, "\n") == 1
		}
		if !ok {
			t.Errorf("%s: stderr %q, want %q (as one line's prefix, if any)", c.args, got, c.stderr)
		}
	}
}

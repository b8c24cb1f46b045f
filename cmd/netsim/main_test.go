package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// short cuts a documented invocation to a 20 s horizon (the later
// flag wins).
var short = []string{"-t", "20", "-warmup", "5"}

// runArgs runs the command on args plus the short horizon.
func runArgs(t *testing.T, args []string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errOut bytes.Buffer
	err = run(append(args, short...), &out, &errOut)
	return out.String(), errOut.String(), err
}

// tableRows counts the rows of the table whose header line starts
// with header: the lines after it up to the next blank line or, when
// end is set, the line starting with end.
func tableRows(lines []string, header, end string) int {
	for i, l := range lines {
		if !strings.HasPrefix(l, header) {
			continue
		}
		n := 0
		for _, r := range lines[i+1:] {
			if r == "" || end != "" && strings.HasPrefix(r, end) {
				break
			}
			n++
		}
		return n
	}
	return 0
}

// TestSingleRunExamples runs the package doc's single-run examples: the
// report opens with the run header and the flow table's header, and
// has one row per flow, per churn class and per node.
func TestSingleRunExamples(t *testing.T) {
	for _, c := range []struct {
		args                  string
		header                string
		flows, classes, nodes int
	}{
		{"-topology parking-lot -hops 3 -mu 40 -t 1000", "parking-lot: 3 nodes, 4 flows, horizon 20s (warmup 5s)", 4, 0, 3},
		{"-topology cross-chain -mu 40 -mu2 60 -cross 30", "cross-chain: 2 nodes, 2 flows, horizon 20s (warmup 5s)", 2, 0, 2},
		{"-topology parking-lot -churn-mean 40 -churn-arrival 0.2 -churn-n0 8", "parking-lot: 3 nodes, 4 flows, horizon 20s (warmup 5s)", 4, 1, 3},
	} {
		stdout, _, err := runArgs(t, strings.Fields(c.args))
		if err != nil {
			t.Errorf("%s: %v", c.args, err)
			continue
		}
		lines := strings.Split(stdout, "\n")
		if lines[0] != c.header || !strings.HasPrefix(lines[1], "flow ") {
			t.Errorf("%s: report opens %q", c.args, lines[:2])
			continue
		}
		if got := tableRows(lines, "flow ", "Jain fairness"); got != c.flows {
			t.Errorf("%s: %d flow rows, want %d:\n%s", c.args, got, c.flows, stdout)
		}
		if got := tableRows(lines, "class ", ""); got != c.classes {
			t.Errorf("%s: %d churn class rows, want %d:\n%s", c.args, got, c.classes, stdout)
		}
		if got := tableRows(lines, "node ", ""); got != c.nodes {
			t.Errorf("%s: %d node rows, want %d:\n%s", c.args, got, c.nodes, stdout)
		}
	}
}

// TestSweepExamples runs the package doc's sweep examples: CSV on
// stdout has its header and one row per cell, and a JSON sink holds
// one cell per grid point while stdout stays empty.
func TestSweepExamples(t *testing.T) {
	stdout, stderr, err := runArgs(t, []string{"-topology", "cross-chain", "-sweep", "cross=0,10,20,30,40", "-csv", "-"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if lines[0] != "index,cross,fairness,delivered,dropped,throughput,mean_queue" || len(lines) != 6 {
		t.Errorf("CSV sweep: want the header and 5 rows, got\n%s", stdout)
	}
	if !strings.Contains(stderr, "swept 5 cells over 1 parameters") {
		t.Errorf("CSV sweep: stderr %q", stderr)
	}

	path := filepath.Join(t.TempDir(), "out.json")
	stdout, _, err = runArgs(t, []string{"-sweep", "c0=2,4,8;delay=0.01,0.02,0.04", "-json", path, "-workers", "8"})
	if err != nil {
		t.Fatal(err)
	}
	if stdout != "" {
		t.Errorf("JSON sweep to a file printed %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Params []struct{ Name string }
		Cells  []json.RawMessage
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Params) != 2 || len(res.Cells) != 9 {
		t.Errorf("JSON sweep: %d params and %d cells, want 2 and 9", len(res.Params), len(res.Cells))
	}
}

// TestRejectedInvocations: a sweep axis the topology does not read,
// or a flag combination the command cannot run, is an error with
// nothing on stdout.
func TestRejectedInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "cross-chain", "-sweep", "hops=1,2"},
		{"-topology", "parking-lot", "-sweep", "cross=0,10"},
		{"-topology", "ring", "-sweep", "mu=40"},
		{"-csv", "-"},
		{"-sweep", "mu=40", "-churn-mean", "40", "-churn-n0", "2"},
	} {
		stdout, _, err := runArgs(t, args)
		if err == nil {
			t.Errorf("%q: accepted, printed %q", args, stdout)
		} else if stdout != "" {
			t.Errorf("%q: failed (%v) after printing %q", args, err, stdout)
		}
	}
	// A NaN warmup is a run error (exit 1) in single-run and sweep
	// mode alike.
	for _, args := range []string{"-t 20 -warmup NaN", "-t 20 -warmup NaN -sweep mu=40 -csv -"} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields(args), &stdout, &stderr)
		if err == nil || errors.Is(err, errUsage) || stdout.Len() != 0 {
			t.Errorf("%s: error %v, printed %q", args, err, stdout.String())
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

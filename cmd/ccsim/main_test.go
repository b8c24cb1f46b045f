package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// short cuts a documented invocation to a 20 s horizon (the later
// flag wins).
var short = []string{"-t", "20", "-warmup", "5"}

// TestDocumentedExamples runs each example of the package doc on a
// short horizon: the report opens with the run header and the column
// header and has one row per source.
func TestDocumentedExamples(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args    string
		sources int
	}{
		{"-mu 60 -n 3 -t 1000", 3},
		{"-mu 60 -n 2 -delays 0.1,2.0 -qtrace " + filepath.Join(dir, "q.tsv"), 2},
		{"-buffer 40 -implicit", 2},
		{"-gateway red -buffer 40", 2},
		{"-burst 4", 2},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append(strings.Fields(c.args), short...), &stdout, &stderr); err != nil {
			t.Errorf("%s: %v", c.args, err)
			continue
		}
		lines := strings.Split(stdout.String(), "\n")
		if !strings.HasPrefix(lines[0], "horizon 20s (warmup 5s)") || !strings.HasPrefix(lines[1], "source ") {
			t.Errorf("%s: report opens %q", c.args, lines[:2])
			continue
		}
		rows := 0
		for _, l := range lines[2:] {
			if strings.HasPrefix(l, "S") {
				rows++
			}
		}
		if rows != c.sources {
			t.Errorf("%s: %d source rows, want %d:\n%s", c.args, rows, c.sources, stdout.String())
		}
	}
}

// TestQueueTrace: -qtrace writes a TSV with a comment header and as
// many samples as the note on stderr reports, one every 0.1 s.
func TestQueueTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.tsv")
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-qtrace", path}, short...), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\((\d+) samples\)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no sample count on stderr: %q", stderr.String())
	}
	logged, _ := strconv.Atoi(m[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if lines[0] != "# t\tqueue" {
		t.Fatalf("trace header %q", lines[0])
	}
	if got := len(lines) - 1; got != logged || got != 200 {
		t.Fatalf("trace has %d samples, stderr reports %d, want 200 over 20 s", got, logged)
	}
	for i, l := range lines[1:] {
		f := strings.Split(l, "\t")
		if len(f) != 2 {
			t.Fatalf("sample %d: %q is not two columns", i, l)
		}
		tt, err := strconv.ParseFloat(f[0], 64)
		if err != nil || tt != float64(i)/10 {
			t.Fatalf("sample %d at %q, want t = %v", i, f[0], float64(i)/10)
		}
	}
}

// TestRejectedInvocations: a flag combination the simulator cannot run
// is an error, not a report.
func TestRejectedInvocations(t *testing.T) {
	for _, args := range []string{
		"-implicit",
		"-gateway bogus",
	} {
		var stdout, stderr bytes.Buffer
		if err := run(append(strings.Fields(args), short...), &stdout, &stderr); err == nil {
			t.Errorf("%s: accepted, printed %q", args, stdout.String())
		} else if stdout.Len() != 0 {
			t.Errorf("%s: failed (%v) after printing %q", args, err, stdout.String())
		}
	}
	// A NaN warmup is a run error (exit 1), not a report of NaN
	// statistics.
	var stdout, stderr bytes.Buffer
	err := run([]string{"-t", "20", "-warmup", "NaN"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errUsage) || stdout.Len() != 0 {
		t.Errorf("-warmup NaN: error %v, printed %q", err, stdout.String())
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

package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocumentedExample runs the package doc's invocation with every
// flag given: stdout must match testdata/tau.tsv byte for byte, and
// without -tau the map drops only the class_at_tau column.
func TestDocumentedExample(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "tau.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := "-c0 2 -c1 0.8 -qhat 20 -widths 0.5,1,2,4 -mus 5,10,20 -tau 0.3"
	if err := run(strings.Fields(args), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) || stderr.Len() != 0 {
		t.Fatalf("stdout differs from testdata/tau.tsv or stderr not empty:\n%s%s", stdout.String(), stderr.String())
	}

	stdout.Reset()
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var noTau []string
	for _, line := range strings.SplitAfter(string(want), "\n") {
		if i := strings.LastIndexByte(line, '\t'); i >= 0 {
			line = line[:i] + "\n"
		}
		noTau = append(noTau, line)
	}
	if got := stdout.String(); got != strings.Join(noTau, "") {
		t.Fatalf("default map:\n%s", got)
	}
}

// TestRejectedInvocations: a -tau that is not finite and non-negative,
// a bad list element, or a cell the law rejects is a run error (exit
// 1) with nothing on stdout.
func TestRejectedInvocations(t *testing.T) {
	for _, args := range []string{
		"-tau NaN",
		"-tau Inf",
		"-tau -1",
		"-widths 1,x",
		"-mus ,",
		"-mus 5,-5",
		"-widths 1,0",
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

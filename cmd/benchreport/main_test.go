package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// runArgs runs benchreport on args and returns its exit code and
// output.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrorsOpenNothing: a bad -format, an unknown -only id, a
// bad -run regexp, -only with -run, a selection of nothing and an
// undefined flag each exit 2 with nothing on stdout, before the
// observability layer creates the -trace file.
func TestUsageErrorsOpenNothing(t *testing.T) {
	for _, args := range []string{
		"-format bogus",
		"-only E99",
		"-only sweep",
		"-run (",
		"-only E1 -run E1",
		"-run ^nothing-matches$",
		"-bogus",
	} {
		trace := filepath.Join(t.TempDir(), "t.jsonl")
		code, stdout, stderr := runArgs(append(strings.Fields(args), "-trace", trace)...)
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, want exit 2 and no output; stderr:\n%s", args, code, stdout, stderr)
		}
		if _, err := os.Stat(trace); !os.IsNotExist(err) {
			t.Errorf("%s: the -trace file was created (stat error %v)", args, err)
		}
	}
}

// TestList: -list prints one line per registered experiment and runs
// nothing.
func TestList(t *testing.T) {
	code, stdout, stderr := runArgs("-list")
	if n := strings.Count(stdout, "\n"); code != 0 || n != 34 || stderr != "" {
		t.Fatalf("exit %d, %d lines, stderr %q; want exit 0, 34 lines, no stderr:\n%s", code, n, stderr, stdout)
	}
	if !strings.HasPrefix(stdout, "E1 ") {
		t.Errorf("first line %q does not list E1", strings.SplitN(stdout, "\n", 2)[0])
	}
}

// TestOnlyPrintsGolden: -only E1 prints, in each format, the bytes of
// E1's committed render in internal/experiments/testdata/golden,
// which holds on amd64 only.
func TestOnlyPrintsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens hold for GOARCH=amd64 only, not %s", runtime.GOARCH)
	}
	for format, ext := range map[string]string{"text": "txt", "csv": "csv", "json": "json"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden", "E1."+ext))
		if err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runArgs("-only", "E1", "-format", format)
		if code != 0 || stdout != string(want) {
			t.Errorf("-format %s: exit %d, stdout differs from golden E1.%s:\n%s\nstderr:\n%s", format, code, ext, stdout, stderr)
		}
	}
}

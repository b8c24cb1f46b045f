package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"fpcc/internal/experiments"
)

// manifestPath is the committed output manifest, relative to the
// benchmark's directory: one "<sha256>  <experiment id>" line per
// experiment, hashing the experiment's full-precision CSV
// (Table.WriteCSV).
const manifestPath = "testdata/expected.sha256"

// pinnedArch is the only GOARCH the manifest holds for. On arm64,
// ppc64 and s390x the compiler may fuse a*b+c into one FMA
// instruction, which rounds once instead of twice and moves the last
// digits of the CSVs.
const pinnedArch = "amd64"

// manifestIDs returns the experiments the manifest covers, in registry
// order: every experiment a workload names, plus E1 — the registry's
// fastest experiment, which the self-tests hash.
func manifestIDs() []string {
	want := map[string]bool{"E1": true}
	for _, w := range workloads {
		for _, id := range w.ids {
			want[id] = true
		}
	}
	var ids []string
	for _, e := range experiments.All() {
		if want[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// idFilter selects exactly the given experiment ids.
func idFilter(ids []string) *regexp.Regexp {
	return regexp.MustCompile("^(" + strings.Join(ids, "|") + ")$")
}

// parseManifest reads manifest lines into id → hex digest, rejecting
// anything that is not a comment, a blank line or a well-formed entry.
func parseManifest(r io.Reader) (map[string]string, error) {
	m := map[string]string{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("manifest line %d: want \"<sha256>  <id>\", got %q", line, text)
		}
		sum, id := fields[0], fields[1]
		if b, err := hex.DecodeString(sum); err != nil || len(b) != sha256.Size {
			return nil, fmt.Errorf("manifest line %d: %q is not a sha256 hex digest", line, sum)
		}
		if _, dup := m[id]; dup {
			return nil, fmt.Errorf("manifest line %d: duplicate entry for %s", line, id)
		}
		m[id] = sum
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	return m, nil
}

func loadManifest() (map[string]string, error) {
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("opening output manifest: %w", err)
	}
	defer f.Close()
	return parseManifest(f)
}

// csvHash returns the hex sha256 of the table's CSV rendering.
func csvHash(t *experiments.Table) (string, error) {
	h := sha256.New()
	if err := t.WriteCSV(h); err != nil {
		return "", fmt.Errorf("%s: rendering CSV: %w", t.ID, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkOutputs returns one line per report whose experiment alarmed or
// whose CSV does not hash to the manifest entry.
func checkOutputs(reports []experiments.Report, want map[string]string) []string {
	var bad []string
	for _, r := range reports {
		id := r.Experiment.ID
		if a := r.Table.Alarm(); a != "" {
			bad = append(bad, id+": alarm: "+a)
			continue
		}
		got, err := csvHash(r.Table)
		switch {
		case err != nil:
			bad = append(bad, err.Error())
		case want[id] == "":
			bad = append(bad, id+": no manifest entry")
		case got != want[id]:
			bad = append(bad, fmt.Sprintf("%s: CSV sha256 %s, manifest has %s", id, got, want[id]))
		}
	}
	return bad
}

// updateManifest runs every manifest experiment once and rewrites the
// manifest from their outputs. It refuses if any experiment alarms, so
// a broken reproduction never becomes the reference.
func updateManifest() error {
	ids := manifestIDs()
	suite, err := experiments.RunSuite(experiments.SuiteConfig{Filter: idFilter(ids)})
	if err != nil {
		return err
	}
	if alarms := suite.Alarms(); len(alarms) > 0 {
		return fmt.Errorf("not updating the manifest: %s", strings.Join(alarms, "; "))
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# sha256 of each experiment's CSV (Table.WriteCSV), valid for GOARCH=%s.\n", pinnedArch)
	b.WriteString("# Regenerate with: go run . -update\n")
	for _, r := range suite.Reports {
		sum, err := csvHash(r.Table)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s  %s\n", sum, r.Experiment.ID)
	}
	tmp := manifestPath + ".tmp"
	if err := os.WriteFile(tmp, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath); err != nil {
		return fmt.Errorf("writing manifest: %w", err)
	}
	return nil
}

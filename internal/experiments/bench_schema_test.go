package experiments

import (
	"encoding/json"
	"testing"
	"time"
)

// TestBenchSchemaV4 runs a cheap suite and checks the v4 report shape:
// schema tag, run manifest with one child per experiment, and resource
// deltas attributed to every entry.
func TestBenchSchemaV4(t *testing.T) {
	suite, err := RunSuite(SuiteConfig{Filter: cheapFilter, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := suite.Bench(1, time.Second)
	if rep.Schema != BenchSchema || BenchSchema != "fpcc-bench/4" {
		t.Fatalf("schema = %q (const %q), want fpcc-bench/4", rep.Schema, BenchSchema)
	}
	if rep.Summary == nil || rep.Summary.Scope != "suite" {
		t.Fatal("bench report missing the suite manifest")
	}
	if rep.Summary.Resources == nil || rep.Summary.Resources.WallSeconds <= 0 {
		t.Fatalf("suite resources = %+v, want positive wall time", rep.Summary.Resources)
	}
	if len(rep.Summary.Children) != len(rep.Experiments) {
		t.Fatalf("manifest has %d children for %d experiments", len(rep.Summary.Children), len(rep.Experiments))
	}
	for i, e := range rep.Experiments {
		if e.Resources == nil {
			t.Fatalf("entry %s has no resource delta", e.ID)
		}
		if e.Resources.WallSeconds <= 0 {
			t.Errorf("entry %s wall delta = %g, want > 0", e.ID, e.Resources.WallSeconds)
		}
		if ch := rep.Summary.Children[i]; ch.Scope != e.ID {
			t.Errorf("manifest child %d scoped %q, want %q (registry order)", i, ch.Scope, e.ID)
		}
	}

	// The report must survive a JSON round-trip with resources intact.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary == nil || back.Experiments[0].Resources == nil {
		t.Fatal("v4 fields lost in the JSON round-trip")
	}
}

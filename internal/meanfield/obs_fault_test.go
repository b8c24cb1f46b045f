package meanfield

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"fpcc/internal/obs"
)

// TestDensityInvariantCorruptMass corrupts one class's density mass
// between steps and requires the next Step to fail with a
// *obs.Violation naming the per-class mass field and the exact step.
func TestDensityInvariantCorruptMass(t *testing.T) {
	cfg := testConfig(100)
	rec := (&obs.Config{Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	// Scale the class density: advection conserves the corruption, so
	// the class mass budget ∫f = 1 + clipped breaks immediately.
	for i := range d.kerns[0].ph[0].f {
		d.kerns[0].ph[0].f[i] *= 1.02
	}
	err = d.Step()
	if err == nil {
		t.Fatal("corrupted class mass passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "mf." + cfg.ClassName(0) + ".mass"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2 (the first step after corruption)", v.Step)
	}
	if rec.Violations() != 1 {
		t.Errorf("recorder counted %d violations, want 1", rec.Violations())
	}
}

// TestDensityInvariantNaNQueue injects a poisoned queue (a plain
// negative value is healed by the queue ODE's max(·, 0) clamp before
// the checker sees it; NaN survives) and requires the checker to
// stamp the bottleneck's queue field.
func TestDensityInvariantNaNQueue(t *testing.T) {
	cfg := testConfig(100)
	cfg.Obs = (&obs.Config{Invariants: true}).Recorder("mf")
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	d.q[0] = math.NaN()
	err = d.Step()
	if err == nil {
		t.Fatal("negative queue passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "mf.bottleneck.q"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2", v.Step)
	}
}

// TestDensityInvariantsCleanRun pins the positive case: an
// uncorrupted instrumented run stays violation-free.
func TestDensityInvariantsCleanRun(t *testing.T) {
	cfg := testConfig(100)
	rec := (&obs.Config{Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(5); err != nil {
		t.Fatalf("instrumented run failed: %v", err)
	}
	if n := rec.Violations(); n != 0 {
		t.Fatalf("clean run recorded %d violations", n)
	}
}

// TestFlightRecorderDump pins the post-mortem path at the mean-field
// layer: the class-mass violation must carry the preceding step's
// probe samples and the dump must land in the sink as a contiguous
// "flight.*" block.
func TestFlightRecorderDump(t *testing.T) {
	cfg := testConfig(100)
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	rec := (&obs.Config{Sink: sink, Invariants: true}).Recorder("mf")
	cfg.Obs = rec
	d, err := NewDensity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	for i := range d.kerns[0].ph[0].f {
		d.kerns[0].ph[0].f[i] *= 1.02
	}
	err = d.Step()
	if err == nil {
		t.Fatal("corrupted class mass passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if len(v.Recent) == 0 {
		t.Fatal("violation carries no flight-recorder events")
	}
	sawEarlierProbe := false
	for _, ev := range v.Recent {
		if ev.T > v.T {
			t.Errorf("flight event %s at t=%g is later than the violation (t=%g)", ev.Name, ev.T, v.T)
		}
		if ev.Kind == "probe" && ev.T < v.T {
			sawEarlierProbe = true
		}
	}
	if !sawEarlierProbe {
		t.Error("flight dump has no probe sample from before the violating step")
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var flightLines, headerN int64
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line does not decode: %v", err)
		}
		switch {
		case e.Kind == "flight":
			headerN = e.Count
		case strings.HasPrefix(e.Kind, "flight."):
			flightLines++
		}
	}
	if headerN != int64(len(v.Recent)) || flightLines != headerN {
		t.Errorf("flight block: header announces %d, %d dump lines, violation carried %d",
			headerN, flightLines, len(v.Recent))
	}
}

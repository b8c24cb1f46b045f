package netmf

import (
	"errors"
	"math"
	"testing"

	"fpcc/internal/obs"
)

// TestEngineInvariantNaNQueue injects a poisoned link queue (the
// downstream face of a broken coupling term; a plain negative value
// is healed by the queue ODE's max(·, 0) clamp before the checker
// sees it, and NaN survives the clamp) and requires the next Step to
// fail with a *obs.Violation naming the per-node queue field and the
// exact step. Density-mass corruption is covered at the RateDensity
// layer by the meanfield package's fault tests — the kernel is
// shared.
func TestEngineInvariantNaNQueue(t *testing.T) {
	cfg := oneNodeConfig(1000)
	rec := (&obs.Config{Invariants: true}).Recorder("netmf")
	cfg.Obs = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	e.FaultInjectQueue(0, math.NaN())
	err = e.Step()
	if err == nil {
		t.Fatal("NaN queue passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if want := "netmf." + cfg.Topology.NodeName(0) + ".q"; v.Field != want {
		t.Errorf("violation field = %q, want %q", v.Field, want)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2", v.Step)
	}
	if rec.Violations() != 1 {
		t.Errorf("recorder counted %d violations, want 1", rec.Violations())
	}
}

// TestEngineInvariantsCleanRun pins the positive case: an
// uncorrupted instrumented run stays violation-free.
func TestEngineInvariantsCleanRun(t *testing.T) {
	cfg := oneNodeConfig(1000)
	rec := (&obs.Config{Invariants: true}).Recorder("netmf")
	cfg.Obs = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(5); err != nil {
		t.Fatalf("instrumented run failed: %v", err)
	}
	if n := rec.Violations(); n != 0 {
		t.Fatalf("clean run recorded %d violations", n)
	}
}

// TestFlightRecorderDump pins the post-mortem path at the network
// layer: the NaN-queue violation must carry the preceding probe
// samples (earlier simulation times) in Violation.Recent.
func TestFlightRecorderDump(t *testing.T) {
	cfg := oneNodeConfig(1000)
	rec := (&obs.Config{Invariants: true, FlightRecorder: 64}).Recorder("netmf")
	cfg.Obs = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	e.FaultInjectQueue(0, math.NaN())
	err = e.Step()
	if err == nil {
		t.Fatal("NaN queue passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if len(v.Recent) == 0 {
		t.Fatal("violation carries no flight-recorder events (ring must fill with no sink attached too)")
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
}

package fokkerplanck

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"fpcc/internal/obs"
)

// obsSolver builds a small instrumented solver (invariants on, no
// sink) and steps it once so the baseline state passes every check.
func obsSolver(t *testing.T) (*Solver, *obs.Recorder, float64) {
	t.Helper()
	cfg := baseConfig()
	rec := (&obs.Config{Invariants: true}).Recorder("fp")
	cfg.Obs = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, -2, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	dt := s.MaxStableDt() / 2
	if err := s.Step(dt); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	return s, rec, dt
}

// TestInvariantCorruptMass corrupts the density mass between steps
// and requires the next Step to fail with a *obs.Violation naming the
// fp.mass field and the exact step at which the corruption was seen.
func TestInvariantCorruptMass(t *testing.T) {
	s, rec, dt := obsSolver(t)
	// Scale the whole field: transport conserves the corruption, so
	// the mass budget ∫f = 1 + clipped − outflow breaks immediately.
	for i := range s.f {
		s.f[i] *= 1.02
	}
	err := s.Step(dt)
	if err == nil {
		t.Fatal("corrupted mass passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if v.Field != "fp.mass" {
		t.Errorf("violation field = %q, want fp.mass", v.Field)
	}
	if v.Step != 2 {
		t.Errorf("violation step = %d, want 2 (the first step after corruption)", v.Step)
	}
	if v.T != s.Time() {
		t.Errorf("violation t = %v, want solver time %v", v.T, s.Time())
	}
	if rec.Violations() != 1 {
		t.Errorf("recorder counted %d violations, want 1", rec.Violations())
	}
}

// TestInvariantNegativeDensity feeds a mass-preserving negative
// excursion directly to the checker (Step clamps negatives before
// checking, so the in-step path reports the clamp through the mass
// budget instead) and requires the fp.density field and step stamp.
func TestInvariantNegativeDensity(t *testing.T) {
	s, _, dt := obsSolver(t)
	// Mass-preserving corruption: the budget check passes, the
	// non-negativity check must catch it.
	s.f[0] -= 1
	s.f[1] += 1
	err := s.observe(s.cfg.Obs, dt)
	if err == nil {
		t.Fatal("negative density passed the invariant checker")
	}
	var v *obs.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error %v is not a *obs.Violation", err)
	}
	if v.Field != "fp.density" {
		t.Errorf("violation field = %q, want fp.density", v.Field)
	}
	if v.Step != 1 {
		t.Errorf("violation step = %d, want 1", v.Step)
	}
}

// TestInvariantsCleanRun pins the positive case: an uncorrupted run
// under full invariant checking completes with zero violations and
// streams probe series to the sink.
func TestInvariantsCleanRun(t *testing.T) {
	cfg := baseConfig()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	rec := (&obs.Config{Sink: sink, Invariants: true}).Recorder("fp")
	cfg.Obs = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, -2, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(1, 0); err != nil {
		t.Fatalf("instrumented run failed: %v", err)
	}
	if n := rec.Violations(); n != 0 {
		t.Fatalf("clean run recorded %d violations", n)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	probes := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line does not decode: %v", err)
		}
		if e.Kind == "probe" {
			probes[e.Name]++
		}
	}
	for _, name := range []string{"fp.mass", "fp.meanq", "fp.clipped", "fp.outflow", "fp.cfl"} {
		if probes[name] == 0 {
			t.Errorf("no %s probe samples in the trace", name)
		}
	}
}

// TestFlightRecorderDump pins the post-mortem path: with invariants
// on (which arms the flight recorder), the mass-corruption violation must carry the probe
// events of the preceding clean step (sampled at an earlier
// simulation time), and the sink must receive them as one contiguous
// "flight" block immediately before the violation line.
func TestFlightRecorderDump(t *testing.T) {
	cfg := baseConfig()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	rec := (&obs.Config{Sink: sink, Invariants: true}).Recorder("fp")
	cfg.Obs = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetGaussian(5, -2, 1.5, 1); err != nil {
		t.Fatal(err)
	}
	dt := s.MaxStableDt() / 2
	if err := s.Step(dt); err != nil {
		t.Fatalf("clean step rejected: %v", err)
	}
	for i := range s.f {
		s.f[i] *= 1.02
	}
	err = s.Step(dt)
	if err == nil {
		t.Fatal("corrupted mass passed the invariant checker")
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
	assertFlightBlock(t, buf.Bytes(), len(v.Recent))
}

// assertFlightBlock scans a JSONL trace for the flight-recorder dump:
// a "flight" header announcing n events, followed contiguously by n
// "flight.*" lines, then the "violation" line.
func assertFlightBlock(t *testing.T, trace []byte, n int) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(trace))
	var kinds []string
	headerCount := int64(-1)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line does not decode: %v", err)
		}
		if e.Kind == "flight" {
			headerCount = e.Count
		}
		kinds = append(kinds, e.Kind)
	}
	if headerCount != int64(n) {
		t.Fatalf("flight header announces %d events, violation carried %d", headerCount, n)
	}
	for i, k := range kinds {
		if k != "flight" {
			continue
		}
		if i+n+1 > len(kinds)-1+1 {
			t.Fatalf("flight header at line %d not followed by %d dump lines", i+1, n)
		}
		for j := i + 1; j <= i+n; j++ {
			if len(kinds[j]) < 7 || kinds[j][:7] != "flight." {
				t.Errorf("line %d inside the flight block has kind %q, want flight.*", j+1, kinds[j])
			}
		}
		if kinds[i+n+1] != "violation" {
			t.Errorf("line after the flight block has kind %q, want violation", kinds[i+n+1])
		}
		return
	}
	t.Fatal("no flight header in the trace")
}

package experiments

import (
	"regexp"
	"runtime"
	"testing"

	"fpcc/internal/obs"
)

// TestSuiteDeterministicAcrossSplits is the two-level scheduler's
// acceptance criterion: any (outer, inner) worker split — wide outer
// with the negotiated grant, narrow outer with a forced wide grant,
// and wide outer with forced unit grants — must render every selected
// experiment to its golden files (off amd64, where the goldens do not
// hold, to the first shape's renders). The filter picks experiments
// whose inner pools actually engage (sweep-cell inner workers for E11/
// E12/E18, the netmf sweep for E30, the churn and adversarial sweeps
// for E32–E34), so a split that leaked into results would show here.
func TestSuiteDeterministicAcrossSplits(t *testing.T) {
	filter := regexp.MustCompile(`^E(11|12|18|30|32|33|34)$`)
	var want map[string]string
	if runtime.GOARCH == goldenArch {
		want = readGoldens(t)
	}
	defer SetInnerWorkers(0)
	for _, cfg := range []struct {
		name  string
		outer int
		inner int
	}{
		{"outer4", 4, 0},
		{"outer2-forced3", 2, 3},
		{"outer8-forced1", 8, 1},
	} {
		SetInnerWorkers(cfg.inner)
		suite := runSuite(t, SuiteConfig{Filter: filter, Workers: cfg.outer})
		if want == nil {
			want = renders(t, suite)
			continue
		}
		checkRenders(t, cfg.name, suite, want)
	}
}

// TestNegotiateInner pins the grant policy: the shared budget is
// GOMAXPROCS, each outer worker's experiment receives
// clamp(budget/outer, 1, Width), and Width 0 leaves the grant uncapped.
func TestNegotiateInner(t *testing.T) {
	// negotiateInner reads GOMAXPROCS; derive expectations from it so
	// the test is host-independent.
	budget := negotiateInner(1, 0)
	if budget < 1 {
		t.Fatalf("budget %d < 1", budget)
	}
	if got := negotiateInner(budget, 0); got != 1 {
		t.Errorf("grant at outer=budget: %d, want 1", got)
	}
	if got := negotiateInner(2*budget, 0); got != 1 {
		t.Errorf("grant must clamp to 1 when oversubscribed, got %d", got)
	}
	if got := negotiateInner(1, 1); got != 1 {
		t.Errorf("width 1 must cap the grant, got %d", got)
	}
	if budget > 1 {
		if got := negotiateInner(1, budget-1); got != budget-1 {
			t.Errorf("width %d cap: got %d", budget-1, got)
		}
	}
}

// TestCtxNil: a nil context is the valid direct-invocation default —
// no recorder, unconstrained grant — and the SetInnerWorkers override
// applies to it too. Stepping is a no-op on it and on a runner-less
// context: only RunSuite opens phase spans.
func TestCtxNil(t *testing.T) {
	var c *Ctx
	if c.Rec() != nil {
		t.Error("nil ctx has a recorder")
	}
	c.Stepping()
	rec := (&obs.Config{}).Recorder("direct")
	(&Ctx{rec: rec, inner: 1}).Stepping()
	if spans := rec.Summary().Spans; len(spans) != 0 {
		t.Errorf("Stepping on a runner-less ctx recorded spans %v", spans)
	}
	if c.Inner() != 0 {
		t.Errorf("nil ctx grant = %d, want 0 (GOMAXPROCS)", c.Inner())
	}
	SetInnerWorkers(3)
	defer SetInnerWorkers(0)
	if c.Inner() != 3 {
		t.Errorf("override not applied to nil ctx: %d", c.Inner())
	}
	if got := (&Ctx{inner: 5}).Inner(); got != 3 {
		t.Errorf("override must win over the grant: %d", got)
	}
}

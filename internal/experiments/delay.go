package experiments

import (
	"math"

	"fpcc/internal/characteristics"
	"fpcc/internal/control"
	"fpcc/internal/fluid"
	"fpcc/internal/stats"
)

// E6DelayOscillation sweeps the feedback delay τ and measures the
// induced limit-cycle amplitude and period of the queue (Section 7:
// "a delay in the feedback information introduces cyclic behavior",
// with amplitude growing with the delay and vanishing as τ → 0).
func E6DelayOscillation(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E6",
		Caption: "limit-cycle amplitude and period vs feedback delay τ (Section 7)",
		Columns: []string{"τ (s)", "late queue swing", "amplitude", "period (s)"},
	}
	law := refLaw()
	taus := []float64{0, 0.25, 0.5, 1, 2, 4}
	var swings []float64
	for _, tau := range taus {
		m := fluid.Model{
			Mu: refMu, Q0: 0,
			Sources: []fluid.Source{{Law: law, Delay: tau, Lambda0: 2}},
		}
		h := 1e-3
		sol, err := m.Solve(800, h, 20)
		if err != nil {
			return nil, err
		}
		ts, qs := sol.Queue()
		swing := stats.SwingOver(ts, qs, 600)
		osc := stats.MeasureOscillation(ts, qs, 600, math.Max(swing/4, 0.05))
		swings = append(swings, swing)
		period := osc.Period
		t.AddRow(tau, swing, osc.Amplitude, period)
	}
	monotone := true
	for i := 1; i < len(swings); i++ {
		if swings[i] < swings[i-1]-0.5 {
			monotone = false
		}
	}
	if swings[0] < 1 && swings[len(swings)-1] > 5 && monotone {
		t.AddFinding("oscillation amplitude grows with τ and vanishes at τ=0: delay is the cause of the cycles (Section 7)")
	} else {
		t.AddFinding("UNEXPECTED SHAPE: swings %v", swings)
	}
	return t, nil
}

// E7DelayUnfairness examines unfairness across connections with
// different feedback delays (Section 7; Jacobson's and Zhang's
// observation that longer connections fare worse).
//
// Two regimes are measured:
//
//  1. Pure observation delay (same law, different τ): the rate model
//     has an exact symmetry — a time-shifted copy of the short-delay
//     sawtooth solves the long-delay equation — so long-run average
//     shares stay equal even though the instantaneous rates separate.
//     The table verifies this structural property.
//
//  2. Full connection-length coupling: a longer path means both a
//     staler signal (τ ∝ RTT) and a slower additive probe (one window
//     step per RTT, so C0 ∝ 1/RTT in the rate analogue — see
//     control.Window.RateEquivalent). This is the regime the paper's
//     measurements refer to, and it produces strong unfairness against
//     the longer connection, beyond the parameter-only C0/C1 share
//     law of Section 6.
func E7DelayUnfairness(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E7",
		Caption: "unfairness vs connection length (Section 7): pure delay vs full RTT coupling",
		Columns: []string{"regime", "RTT2/RTT1", "share S1", "share S2", "S1/S2", "C0-law prediction S1/S2"},
	}
	law := refLaw()
	const baseRTT = 0.5

	// Regime 1: pure observation delay, τ2 = 8·τ1.
	m := fluid.Model{
		Mu: refMu, Q0: 0,
		Sources: []fluid.Source{
			{Law: law, Delay: baseRTT, Lambda0: 5},
			{Law: law, Delay: baseRTT * 8, Lambda0: 5},
		},
	}
	sol, err := m.Solve(3000, 5e-3, 100)
	if err != nil {
		return nil, err
	}
	means := sol.MeanRates(1500)
	total := means[0] + means[1]
	pureRatio := means[0] / means[1]
	t.AddRow("pure delay", 8.0, means[0]/total, means[1]/total, pureRatio, 1.0)

	// Regime 2: full RTT coupling, sweeping the length ratio.
	var ratios []float64
	for _, r := range []float64{1, 2, 4, 8} {
		rtt2 := baseRTT * r
		law1 := control.AIMD{C0: refC0, C1: refC1, QHat: refQHat}
		law2 := control.AIMD{C0: refC0 * baseRTT / rtt2, C1: refC1, QHat: refQHat}
		m := fluid.Model{
			Mu: refMu, Q0: 0,
			Sources: []fluid.Source{
				{Law: law1, Delay: baseRTT, Lambda0: 5},
				{Law: law2, Delay: rtt2, Lambda0: 5},
			},
		}
		sol, err := m.Solve(3000, 5e-3, 100)
		if err != nil {
			return nil, err
		}
		means := sol.MeanRates(1500)
		total := means[0] + means[1]
		ratio := means[0] / means[1]
		pred, err := fluid.PredictedShares([]control.AIMD{law1, law2})
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, ratio)
		t.AddRow("RTT-coupled", r, means[0]/total, means[1]/total, ratio, pred[0]/pred[1])
	}
	if math.Abs(pureRatio-1) < 0.05 && math.Abs(ratios[0]-1) < 0.05 && ratios[len(ratios)-1] > 2 {
		t.AddFinding("pure observation delay alone leaves average shares equal (time-shift symmetry of the rate model)")
		t.AddFinding("with the full RTT coupling the longer connection loses, increasingly with length — the unfairness the paper attributes 'partly' to feedback delay")
	} else {
		t.AddFinding("UNEXPECTED SHAPE: pure %v, coupled %v", pureRatio, ratios)
	}
	return t, nil
}

// E8AlgorithmOscillation contrasts AIMD and AIAD without any feedback
// delay: the paper attributes AIMD oscillation to delay alone, while
// linear-increase/linear-decrease oscillates because of the algorithm
// itself (neutrally stable closed orbits).
func E8AlgorithmOscillation(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E8",
		Caption: "oscillation without delay: AIMD converges, AIAD cycles (Sections 1, 7)",
		Columns: []string{"law", "behavior", "amplitude ratio (last/first)", "late queue swing"},
	}
	const horizon = 400.0
	aimd := refLaw()
	behA, ratioA, swingA, err := oscillation(aimd, horizon)
	if err != nil {
		return nil, err
	}
	t.AddRow("AIMD (lin-inc/exp-dec)", behA.String(), ratioA, swingA)

	aiad, err := control.NewAIAD(refC0, refC1*refMu, refQHat)
	if err != nil {
		return nil, err
	}
	behB, ratioB, swingB, err := oscillation(aiad, horizon)
	if err != nil {
		return nil, err
	}
	t.AddRow("AIAD (lin-inc/lin-dec)", behB.String(), ratioB, swingB)

	if behA == characteristics.Converging && behB == characteristics.NeutralCycle {
		t.AddFinding("with zero delay AIMD's oscillation dies out while AIAD's persists: AIAD oscillates because of the algorithm itself")
	} else {
		t.AddFinding("UNEXPECTED: AIMD=%v AIAD=%v", behA, behB)
	}
	return t, nil
}

// oscillation traces law from (10, 12) over the horizon without
// delay and classifies its Poincaré amplitudes; swing is the queue's
// max − min over the last quarter of the trace.
func oscillation(law control.Law, horizon float64) (beh characteristics.Behavior, ratio, swing float64, err error) {
	sec := characteristics.Section{QHat: refQHat, Mu: refMu}
	lo, hi := math.Inf(1), math.Inf(-1)
	err = characteristics.Trace(law, refMu, characteristics.Point{Q: 10, Lambda: 12}, horizon, 1e-3,
		func(t float64, y []float64) {
			sec.Add(t, y)
			if t < horizon*0.75 {
				return
			}
			lo = math.Min(lo, y[0])
			hi = math.Max(hi, y[0])
		})
	if err != nil {
		return 0, 0, 0, err
	}
	if !(hi < lo) { // no late sample leaves the swing 0
		swing = hi - lo
	}
	beh, ratio = characteristics.Classify(sec.Crossings, refMu, 0.05)
	return beh, ratio, swing, nil
}

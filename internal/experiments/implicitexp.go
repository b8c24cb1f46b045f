package experiments

import (
	"fpcc/internal/control"
	"fpcc/internal/des"
)

// E25ImplicitVsExplicit exercises the dichotomy of the paper's very
// first sentence — rates adjusted "based on implicit or explicit
// feedback". The same AIMD law drives one source against the same
// finite-buffer bottleneck under three signals: the paper's explicit
// queue observation, RED-style explicit marking, and the implicit
// TCP-style signal (was one of my packets dropped last interval?).
// Implicit feedback only fires *after* the buffer overflows, so it
// must operate the queue near the top of the buffer and pay a loss
// rate; explicit feedback can hold the queue at q̂ ≪ B with zero loss.
func E25ImplicitVsExplicit(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E25",
		Caption: "explicit vs implicit feedback at a 40-packet buffer (AIMD, μ=30, q̂=15, delay 0.1s)",
		Columns: []string{"feedback", "throughput", "utilization", "mean queue", "queue std", "loss rate"},
	}
	law, err := control.NewAIMD(2, 0.5, 15)
	if err != nil {
		return nil, err
	}
	const (
		mu      = 30.0
		buffer  = 40
		horizon = 4000.0
		warmup  = 500.0
	)
	run := func(implicit bool, gw des.Gateway) (*des.Result, error) {
		sim, err := des.New(des.Config{
			Mu:      mu,
			Buffer:  buffer,
			Seed:    47,
			Gateway: gw,
			Sources: []des.SourceConfig{{
				Law: law, Interval: 0.25, Delay: 0.1, Lambda0: 5,
				MinRate: 1, ImplicitLoss: implicit,
			}},
		})
		if err != nil {
			return nil, err
		}
		return sim.Run(horizon, warmup)
	}
	addRow := func(name string, res *des.Result) float64 {
		loss := float64(res.Dropped[0]) / float64(res.Dropped[0]+res.Delivered[0])
		t.AddRow(name, res.Throughput[0], res.Throughput[0]/mu,
			res.QueueStats.Mean(), res.QueueStats.StdDev(), loss)
		return loss
	}

	exp, err := run(false, nil)
	if err != nil {
		return nil, err
	}
	lossExp := addRow("explicit queue (paper)", exp)

	red, err := des.NewREDGateway(5, 30, 0.3, 0.5)
	if err != nil {
		return nil, err
	}
	redRes, err := run(false, red)
	if err != nil {
		return nil, err
	}
	addRow("explicit RED marking", redRes)

	imp, err := run(true, nil)
	if err != nil {
		return nil, err
	}
	lossImp := addRow("implicit loss (TCP-style)", imp)

	if lossImp > 0 && lossExp < lossImp/5 {
		t.AddFinding("implicit feedback must fill the buffer to learn anything: the queue rides at %.0f of %d (vs q̂ = 15) and %.2f%% of packets die as signal — it buys its extra utilization (%.2f vs %.2f) with loss and standing delay, the classic bufferbloat trade", imp.QueueStats.Mean(), buffer, 100*lossImp, imp.Throughput[0]/mu, exp.Throughput[0]/mu)
	} else {
		t.AddFinding("loss rates: explicit %.3f%%, implicit %.3f%%", 100*lossExp, 100*lossImp)
	}
	t.AddFinding("the paper's explicit-observation model (with its q̂) operates in a genuinely different regime from the implicit protocols it motivates — the gap RED/ECN later closed")
	return t, nil
}

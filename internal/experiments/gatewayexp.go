package experiments

import (
	"fpcc/internal/control"
	"fpcc/internal/des"
)

// E20GatewayComparison holds the control law, delay and load fixed
// and swaps only the gateway's feedback discipline: the paper's raw
// threshold signal, a DECbit-style EWMA average, and RED-style random
// early marking. The paper analyzes the first; DECbit is the feedback
// its Ramakrishnan-Jain citation actually used, and RED is the
// gateway line of work that followed. The comparison shows how much
// of the delayed-feedback oscillation is attributable to the raw,
// synchronous congestion signal.
func E20GatewayComparison(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E20",
		Caption: "gateway feedback disciplines under feedback delay 0.5s (AIMD, μ=30, q̂=15)",
		Columns: []string{"gateway", "throughput", "utilization", "mean queue", "queue std", "rate std"},
	}
	law, err := control.NewAIMD(2, 0.5, 15)
	if err != nil {
		return nil, err
	}
	const (
		mu      = 30.0
		horizon = 3000.0
		warmup  = 500.0
	)
	run := func(gw des.Gateway) (*des.Result, error) {
		sim, err := des.New(des.Config{
			Mu:      mu,
			Seed:    61,
			Gateway: gw,
			Sources: []des.SourceConfig{{
				Law: law, Interval: 0.25, Delay: 0.5, Lambda0: 10, MinRate: 0.5,
			}},
		})
		if err != nil {
			return nil, err
		}
		return sim.Run(horizon, warmup)
	}

	ewma, err := des.NewEWMAGateway(1.0)
	if err != nil {
		return nil, err
	}
	red, err := des.NewREDGateway(5, 25, 0.3, 0.5)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name string
		gw   des.Gateway
	}{
		{"threshold (paper)", nil},
		{"ewma / DECbit", ewma},
		{"red / early marking", red},
	}
	var qstd, rstd []float64
	for _, r := range rows {
		res, err := run(r.gw)
		if err != nil {
			return nil, err
		}
		rs := res.Rate[0].StdDev()
		t.AddRow(r.name, res.Throughput[0], res.Throughput[0]/mu,
			res.QueueStats.Mean(), res.QueueStats.StdDev(), rs)
		qstd = append(qstd, res.QueueStats.StdDev())
		rstd = append(rstd, rs)
	}
	if rstd[2] < rstd[0] {
		t.AddFinding("randomized early marking damps the rate oscillation relative to the raw threshold signal (rate std %.2f vs %.2f)", rstd[2], rstd[0])
	} else {
		t.AddFinding("rate std: threshold %.2f, ewma %.2f, red %.2f", rstd[0], rstd[1], rstd[2])
	}
	if qstd[1] != qstd[0] {
		t.AddFinding("EWMA filtering changes the queue spread (%.2f vs %.2f): averaging trades feedback noise for loop lag, shifting the oscillation balance", qstd[1], qstd[0])
	}
	return t, nil
}

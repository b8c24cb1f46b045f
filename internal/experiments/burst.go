package experiments

import (
	"fpcc/internal/control"
	"fpcc/internal/des"
	"fpcc/internal/sweep"
	"fpcc/internal/traffic"
)

// E18BurstinessSweep stresses the AIMD loop with on/off modulated
// traffic of increasing burstiness — the "traffic variability" the
// paper's closing section says distinguishes the Fokker-Planck view
// from fluid approximations. The long-run offered rate is identical
// in every row (the modulators have mean factor 1); only the packet-
// scale variability changes. Burstiness β is the on/off peak factor;
// the equivalent index of dispersion grows with β. The β grid runs on
// the parallel sweep runner, one independent DES per cell.
func E18BurstinessSweep(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	rc := ctx.Rec()
	t := &Table{
		ID:      "E18",
		Caption: "AIMD under on/off bursts (2s cycle, mean factor 1): queue statistics vs burstiness",
		Columns: []string{"burstiness β", "throughput", "utilization", "mean queue", "queue std"},
	}
	law, err := control.NewAIMD(2, 0.5, 15)
	if err != nil {
		return nil, err
	}
	const (
		mu      = 30.0
		cycle   = 2.0
		horizon = 4000.0
		warmup  = 500.0
	)
	betas := []float64{1, 2, 4, 8} // β = 1 is plain Poisson
	type cellOut struct {
		throughput, util, meanQ, stdQ float64
	}
	cells, err := sweep.Run(sweep.Config{
		Grid:    sweep.Grid{Dims: []sweep.Dim{{Name: "beta", Values: betas}}},
		Workers: ctx.Inner(),
		Obs:     rc,
	}, func(c sweep.Cell) (cellOut, error) {
		var mod traffic.Modulator
		if beta := c.Values[0]; beta > 1 {
			m, err := traffic.NewOnOff(cycle/beta, cycle-cycle/beta)
			if err != nil {
				return cellOut{}, err
			}
			mod = m
		}
		sim, err := des.New(des.Config{
			Mu:   mu,
			Seed: 33,
			Sources: []des.SourceConfig{{
				Law: law, Interval: 0.25, Lambda0: 10, MinRate: 0.5, Burst: mod,
			}},
		})
		if err != nil {
			return cellOut{}, err
		}
		res, err := sim.Run(horizon, warmup)
		if err != nil {
			return cellOut{}, err
		}
		return cellOut{
			throughput: res.Throughput[0],
			util:       res.Throughput[0] / mu,
			meanQ:      res.QueueStats.Mean(),
			stdQ:       res.QueueStats.StdDev(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var stds, utils []float64
	for i, c := range cells {
		t.AddRow(betas[i], c.throughput, c.util, c.meanQ, c.stdQ)
		stds = append(stds, c.stdQ)
		utils = append(utils, c.util)
	}
	if stds[len(stds)-1] > 1.5*stds[0] {
		t.AddFinding("queue variability grows with burstiness (std %.2f → %.2f) at identical offered load — the spread a fluid model cannot represent", stds[0], stds[len(stds)-1])
	} else {
		t.AddFinding("UNEXPECTED: queue std did not grow with burstiness (%.2f → %.2f)", stds[0], stds[len(stds)-1])
	}
	if utils[len(utils)-1] < utils[0] {
		t.AddFinding("utilization falls with burstiness (%.2f → %.2f): off-periods drain the queue dry and the idle link time is unrecoverable", utils[0], utils[len(utils)-1])
	}
	return t, nil
}

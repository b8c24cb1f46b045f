package experiments

import (
	"fpcc/internal/des"
	"fpcc/internal/stats"
)

// E21TahoeRTTShare reproduces the observation the paper quotes from
// Jacobson's measurements and Zhang's simulations — "connections with
// larger number of hops receive a poorer share of an intermediate
// resource" — with the actual protocol rather than the rate
// abstraction: two ack-clocked Tahoe flows share a drop-tail
// bottleneck and the propagation-delay ratio is swept. The share
// ratio should grow with the RTT ratio (between linear and quadratic
// in it, per the classic TCP-friendliness analyses that followed).
func E21TahoeRTTShare(ctx *Ctx) (*Table, error) {
	ctx.Stepping()
	t := &Table{
		ID:      "E21",
		Caption: "TCP-Tahoe share of a drop-tail bottleneck vs RTT ratio (μ=100 pkt/s, buffer 25)",
		Columns: []string{"RTT ratio", "short tput", "long tput", "share ratio", "Jain index"},
	}
	const (
		mu      = 100.0
		buffer  = 25
		baseD   = 0.025
		horizon = 600.0
		warmup  = 100.0
	)
	var ratios []float64
	for _, rr := range []float64{1, 2, 4, 8} {
		cfg := des.TahoeConfig{
			Mu:     mu,
			Buffer: buffer,
			Seed:   29,
			Flows: []des.TahoeFlowConfig{
				{PropDelay: baseD, RTO: 32 * baseD},
				{PropDelay: baseD * rr, RTO: 32 * baseD * rr},
			},
		}
		sim, err := des.NewTahoe(cfg)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(horizon, warmup)
		if err != nil {
			return nil, err
		}
		short, long := res.Throughput[0], res.Throughput[1]
		share := short / long
		ratios = append(ratios, share)
		t.AddRow(rr, short, long, share, stats.JainIndex(res.Throughput))
	}
	increasing := true
	for i := 1; i < len(ratios); i++ {
		if ratios[i] < ratios[i-1] {
			increasing = false
		}
	}
	if increasing && ratios[len(ratios)-1] > 2 {
		t.AddFinding("the long-RTT flow's share collapses as the RTT ratio grows (share ratio %.1f at 8×): the multi-hop unfairness of Zhang/Jacobson, from protocol dynamics alone", ratios[len(ratios)-1])
	} else {
		t.AddFinding("share ratios across RTT ratios 1,2,4,8: %.2f %.2f %.2f %.2f", ratios[0], ratios[1], ratios[2], ratios[3])
	}
	t.AddFinding("the rate-model counterpart is E7: there the unfairness needed the C0 ∝ 1/RTT coupling; the packet protocol exhibits it intrinsically")
	return t, nil
}

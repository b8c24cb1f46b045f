package netmf

import (
	"fmt"

	"fpcc/internal/control"
	"fpcc/internal/netsim"
)

// Canned large-N scenarios mirroring internal/netsim's topology
// builders: the same graphs the packet simulator evaluates at tens of
// flows, posed as mean-field class mixes so they run at millions of
// sources per class. Numeric fields left zero take the documented
// defaults, so a builder call reads like the scenario description.

// ParkingLotConfig parameterizes ParkingLot. All rate-like quantities
// are in per-source units scaled by Share.
type ParkingLotConfig struct {
	// Hops is the number of bottleneck hops (>= 1).
	Hops int
	// N is the population of EACH class: one long class crossing all
	// hops plus one cross class per hop, so a hop serves 2N sources.
	N int
	// Share is the per-source service share at a hop (0 = 1 pk/s):
	// every hop gets μ = 2·N·Share.
	Share float64
	// QHat0 is the per-source path-queue target (0 = 2): every class's
	// AIMD law uses q̂ = QHat0·2N, the E26 convention of one threshold
	// shared by long and cross flows alike.
	QHat0 float64
	// C0, C1 are the AIMD gains in Share units (0 = 0.5 each); all
	// classes share one law, so any unfairness is topology-induced.
	C0, C1 float64
	// Delay is the cross-class RTT (s); the long class's RTT is
	// Delay·RTTStretch·Hops (its path visits every hop).
	Delay float64
	// RTTStretch multiplies the long class's hop-proportional RTT
	// (0 = 1: RTT grows exactly with hop count).
	RTTStretch float64
	// Sigma is the per-source rate noise in Share units (0 = 0.3).
	Sigma float64
	// LMax (in Share units, 0 = 6), Bins (0 = 192) and Dt (0 = 0.005)
	// shape the rate grid and step.
	LMax float64
	Bins int
	Dt   float64
}

// ParkingLot builds the classic parking-lot fairness benchmark in the
// large-N limit: a chain of Hops identical bottleneck nodes, one long
// class crossing the whole chain, one cross class per hop. Max-min
// fairness gives every source an equal share; AIMD control instead
// beats the long class down — it observes the summed backlog of every
// hop (so it backs off for congestion anywhere on its path) and pays
// a longer RTT. Experiment E30 sweeps Hops and RTTStretch at
// N = 10⁶.
func ParkingLot(pc ParkingLotConfig) (Config, error) {
	if pc.Hops < 1 {
		return Config{}, fmt.Errorf("netmf: parking lot needs >= 1 hop, got %d", pc.Hops)
	}
	if pc.N < 1 {
		return Config{}, fmt.Errorf("netmf: parking lot needs >= 1 source per class, got %d", pc.N)
	}
	share := defaultTo(pc.Share, 1)
	qhat := defaultTo(pc.QHat0, 2) * 2 * float64(pc.N)
	c0 := defaultTo(pc.C0, 0.5) * share
	c1 := defaultTo(pc.C1, 0.5)
	sigma := defaultTo(pc.Sigma, 0.3) * share
	stretch := defaultTo(pc.RTTStretch, 1)
	law := control.AIMD{C0: c0, C1: c1, QHat: qhat}

	cfg := Config{
		LMax: defaultTo(pc.LMax, 6) * share,
		Bins: pc.Bins,
		Dt:   pc.Dt,
	}
	if cfg.Bins == 0 {
		cfg.Bins = 192
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.005
	}
	for h := 0; h < pc.Hops; h++ {
		cfg.Topology.Nodes = append(cfg.Topology.Nodes, netsim.Node{
			Name: fmt.Sprintf("hop%d", h), Mu: 2 * float64(pc.N) * share,
		})
		if h > 0 {
			cfg.Topology.Links = append(cfg.Topology.Links, netsim.Link{From: h - 1, To: h})
		}
	}
	longRoute := make([]int, pc.Hops)
	for h := range longRoute {
		longRoute[h] = h
	}
	cfg.Classes = append(cfg.Classes, Class{
		Name: "long", Law: law, N: pc.N, Route: longRoute,
		Delay:   pc.Delay * stretch * float64(pc.Hops),
		Lambda0: share, InitStd: 0.3 * share, SigmaL: sigma,
	})
	for h := 0; h < pc.Hops; h++ {
		cfg.Classes = append(cfg.Classes, Class{
			Name: fmt.Sprintf("cross%d", h), Law: law, N: pc.N, Route: []int{h},
			Delay:   pc.Delay,
			Lambda0: share, InitStd: 0.3 * share, SigmaL: sigma,
		})
	}
	return cfg, nil
}

// CrossChainConfig parameterizes CrossChain. Rate-like quantities are
// in per-source units scaled by Share, with the TOTAL population N
// split between the classes by CrossFrac.
type CrossChainConfig struct {
	// N is the total population across both classes.
	N int
	// CrossFrac is the fraction of N in the uncontrolled constant-rate
	// cross class injected at hop 2 (the class-mix ramp of E31). A
	// zero fraction still instantiates the cross class with one idle
	// source, so every cell of a sweep has the same class list.
	CrossFrac float64
	// Share is the per-source scale (0 = 1 pk/s).
	Share float64
	// QHat0 is the adaptive class's per-source path-queue target
	// (0 = 2): q̂ = QHat0·N.
	QHat0 float64
	// C0, C1 are the adaptive AIMD gains in Share units (0 = 0.5).
	C0, C1 float64
	// Delay is the adaptive class's RTT (s).
	Delay float64
	// Sigma is the adaptive class's rate noise in Share units
	// (0 = 0.3).
	Sigma float64
	// LMax (0 = 6, Share units), Bins (0 = 192), Dt (0 = 0.005).
	LMax float64
	Bins int
	Dt   float64
}

// CrossChain builds the bottleneck-migration scenario in the large-N
// limit: an adaptive class crossing two hops in series plus an
// uncontrolled class injected at the second hop, each of its sources
// sending at the fixed rate Share. Hop 1 serves 0.4·N·Share and hop 2
// 0.6·N·Share, so with a small cross class the slower hop 1 carries
// the standing queue; as CrossFrac grows, hop 2's residual capacity
// μ2 − Λ_cross shrinks below μ1 and the standing fluid queue migrates
// downstream. Experiment E31 ramps CrossFrac at N = 10⁶.
func CrossChain(cc CrossChainConfig) (Config, error) {
	if cc.N < 2 {
		return Config{}, fmt.Errorf("netmf: cross chain needs >= 2 sources, got %d", cc.N)
	}
	if !(cc.CrossFrac >= 0) || cc.CrossFrac >= 1 {
		return Config{}, fmt.Errorf("netmf: cross fraction %v outside [0, 1)", cc.CrossFrac)
	}
	share := defaultTo(cc.Share, 1)
	crossRate := share
	nCross := int(cc.CrossFrac * float64(cc.N))
	if nCross < 1 {
		// Keep the class list sweep-stable across a CrossFrac ramp: a
		// zero fraction still gets the cross class, as one source in
		// the bottom rate cell (offered rate ≤ Δλ/2 — idle up to grid
		// resolution, not the full per-source rate).
		nCross = 1
		crossRate = 0
	}
	nMain := cc.N - nCross
	qhat := defaultTo(cc.QHat0, 2) * float64(cc.N)
	law := control.AIMD{
		C0:   defaultTo(cc.C0, 0.5) * share,
		C1:   defaultTo(cc.C1, 0.5),
		QHat: qhat,
	}

	cfg := Config{
		Topology: netsim.Topology{
			Nodes: []netsim.Node{
				{Name: "hop1", Mu: 0.4 * float64(cc.N) * share},
				{Name: "hop2", Mu: 0.6 * float64(cc.N) * share},
			},
			Links: []netsim.Link{{From: 0, To: 1}},
		},
		LMax: defaultTo(cc.LMax, 6) * share,
		Bins: cc.Bins,
		Dt:   cc.Dt,
	}
	if cfg.Bins == 0 {
		cfg.Bins = 192
	}
	if cfg.Dt == 0 {
		cfg.Dt = 0.005
	}
	cfg.Classes = []Class{
		{
			Name: "main", Law: law, N: nMain, Route: []int{0, 1},
			Delay:   cc.Delay,
			Lambda0: share, InitStd: 0.3 * share,
			SigmaL: defaultTo(cc.Sigma, 0.3) * share,
		},
		{
			// Uncontrolled cross traffic: a point mass at crossRate
			// under a zero-drift law never moves.
			Name: "cross", Law: netsim.ConstantRate(), N: nCross, Route: []int{1},
			Lambda0: crossRate,
		},
	}
	return cfg, nil
}

// defaultTo returns v, or def when v is zero.
func defaultTo(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

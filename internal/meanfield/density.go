package meanfield

// Density is the kinetic engine on one shared bottleneck: every class
// routes through the single queue (node 0, service rate Config.Mu,
// initial length Config.Q0), so the delayed path backlog each class
// observes is the bottleneck queue Q(t−τ_k). Stepping costs
// O(classes × bins) regardless of the population sizes N_k. Probes
// and violation fields carry the "mf" scope, and the queue's node is
// named "bottleneck".
type Density struct {
	*Engine
}

// NewDensity builds the one-node kinetic engine with every class
// initialized to its (grid-discretized, renormalized) Gaussian blob.
func NewDensity(cfg Config) (*Density, error) {
	e, err := NewEngine(cfg, cfg.oneNode())
	if err != nil {
		return nil, err
	}
	return &Density{e}, nil
}

// oneNode returns the network of a Density: the single bottleneck
// queue every class routes through.
func (c *Config) oneNode() Network {
	return Network{
		Scope: "mf",
		Nodes: []string{"bottleneck"},
		Mu:    []float64{c.Mu},
		Q0:    []float64{c.Q0},
	}
}

// Queue returns the current bottleneck queue length.
func (d *Density) Queue() float64 { return d.Engine.Queue(0) }

// AggregateRate returns the total arrival rate
// Λ = Σ_k w_k N_k ⟨λ⟩_k · live_k · env_k(t) currently offered to the
// bottleneck (see Engine.ClassOfferedRate).
func (d *Density) AggregateRate() float64 { return d.NodeArrival(0) }

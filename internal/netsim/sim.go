package netsim

import (
	"fmt"
	"math"

	"fpcc/internal/des"
	"fpcc/internal/eventq"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
	"fpcc/internal/window"
)

// eventKind enumerates the simulator's event types.
type eventKind int

const (
	evSend      eventKind = iota // a flow emits a packet
	evArrive                     // a packet reaches a node's queue
	evDepart                     // a node's server finishes a packet
	evControl                    // a flow applies its control law
	evModSwitch                  // a flow's burst modulator changes state
	evBirth                      // a churn class spawns a session (flow = class index)
	evDeath                      // a churn session's lifetime expires
)

// event is one scheduled occurrence.
type event struct {
	t    float64
	kind eventKind
	flow int // flow index (churn class index for evBirth)
	node int // for evArrive/evDepart
	leg  int // index into the packet's route for evArrive
	seq  uint64
}

// Key implements eventq.Event: min-heap order on (t, seq), time
// order with deterministic FIFO tie-breaking.
func (e event) Key() (float64, uint64) { return e.t, e.seq }

// packetRef identifies a queued packet: whose it is and how far along
// its route it has come.
type packetRef struct {
	flow int
	leg  int
}

// nodeState is the runtime state of one queue.
type nodeState struct {
	cfg     Node
	queue   des.FIFO[packetRef] // head in service when serving
	serving bool
	rng     *rng.Source
	// Queue-length (and gateway-signal) history for delayed
	// observation, recorded at every change; its window keeps the
	// longest lookback.
	hist       window.Window[des.QueueMark]
	drops      int64   // post-warmup drop-tail losses at this node
	lastChange float64 // when the queue last changed (for time-weighted stats)
}

// flowState is the runtime state of one sender.
type flowState struct {
	cfg      Flow
	lambda   float64
	rng      *rng.Source
	nextAt   float64 // next scheduled emission (superseded sends detected against it)
	rtt      float64
	interval float64 // resolved control period (cfg.Interval or RTT)
	class    int     // owning churn class, -1 for static flows
	alive    bool    // false after evDeath: no sends, no control
	// Burst-modulation state (factor = 1 when cfg.Burst is nil).
	modState int
	factor   float64
}

// classState is the runtime state of one churn class.
type classState struct {
	cfg        ChurnClass
	rng        *rng.Source // birth gaps and per-session stream splits
	rtt        float64     // template's base RTT (shared by every session)
	live       int
	born, died int64
	lastChange float64 // when live last changed (for time-weighted stats)
}

// Result summarizes a netsim run.
type Result struct {
	// Delivered[i] counts flow i's packets that exited the network
	// after warmup; Dropped[i] its post-warmup drop-tail losses.
	// (Static flows only; churn sessions aggregate per class below.)
	Delivered []int64
	Dropped   []int64
	// Throughput[i] is Delivered[i] / measurement window (packets/s).
	Throughput []float64
	// Per-churn-class aggregates (one entry per Config.Churn class;
	// all nil without churn). Born/Died count sessions over the whole
	// run (N0 sessions are initial population, not births); LiveEnd
	// is the population when the run ended; Live aggregates the
	// time-weighted live population after warmup. Delivered/Dropped/
	// Throughput sum the class's sessions post-warmup, the aggregate
	// counterparts of the per-flow arrays.
	ChurnBorn       []int64
	ChurnDied       []int64
	ChurnLiveEnd    []int64
	ChurnLive       []stats.WeightedMoments
	ChurnDelivered  []int64
	ChurnDropped    []int64
	ChurnThroughput []float64
	// NodeDropped[h] counts post-warmup losses at node h.
	NodeDropped []int64
	// NodeQueue[h] aggregates the time-weighted queue length at node
	// h after warmup.
	NodeQueue []stats.WeightedMoments
	// FlowRTT[i] is flow i's base (propagation-only) round-trip time.
	FlowRTT []float64
	// FinalT is the time of the last event processed, capped at the
	// horizon.
	FinalT float64
}

// Sim is the simulator instance. Create with New, execute with Run.
//
// Feedback model: a flow's controller observes the sum, over the
// nodes of its route, of each node's congestion value as it stood
// FeedbackDelay seconds ago — the raw queue length for transparent
// nodes, Gateway.Observe of the recorded signal for gateway nodes
// (so a RED mark at any hop pushes the sum past the law's threshold,
// the path analogue of a receiver OR-ing congestion bits). The sum
// over raw queues is the path backlog of des.TandemSim, by the same
// mechanism: one queue-history window per queue, summed over the route.
type Sim struct {
	cfg     Config
	links   map[linkKey]float64
	nodes   []*nodeState
	flows   []*flowState
	classes []*classState
	events  eventq.Q[event]
	seq     uint64
	t       float64
	maxLook float64
}

// New builds a simulator.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	links, err := cfg.linkTable()
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &Sim{cfg: cfg, links: links}
	for _, nc := range cfg.Nodes {
		ns := &nodeState{cfg: nc, rng: root.Split()}
		var sig0 float64
		if nc.Gateway != nil {
			nc.Gateway.Reset()
			sig0 = nc.Gateway.Signal(0, 0)
		}
		ns.hist.Record(0, des.QueueMark{Sig: sig0}, 0)
		s.nodes = append(s.nodes, ns)
	}
	for i, fc := range cfg.Flows {
		rtt, err := cfg.FlowRTT(i)
		if err != nil {
			return nil, err
		}
		fs := &flowState{
			cfg: fc, lambda: fc.Lambda0, rng: root.Split(), rtt: rtt,
			class: -1, alive: true, factor: 1,
		}
		fs.interval = fc.Interval
		if fs.interval == 0 {
			fs.interval = rtt
		}
		if fc.FeedbackDelay > s.maxLook {
			s.maxLook = fc.FeedbackDelay
		}
		s.flows = append(s.flows, fs)
		if fc.Burst != nil {
			fs.modState = fc.Burst.InitState(fs.rng)
			fs.factor = fc.Burst.Factor(fs.modState)
			s.push(event{t: fc.Burst.Sojourn(fs.modState, fs.rng), kind: evModSwitch, flow: i})
		}
		// First control update staggered by flow index to avoid
		// artificial lock-step (same discipline as des.Sim).
		stagger := fs.interval * (1 + float64(i)/float64(len(cfg.Flows)))
		s.push(event{t: stagger, kind: evControl, flow: i})
		s.scheduleSend(i)
	}
	// Churn classes split their streams after every node and static
	// flow, so adding a class never perturbs a static flow's draws.
	tp := cfg.Topo()
	for j := range cfg.Churn {
		cc := &cfg.Churn[j]
		path, err := tp.PathDelay(cc.Template.Route)
		if err != nil {
			return nil, fmt.Errorf("netsim: churn class %d: %w", j, err)
		}
		cs := &classState{
			cfg: *cc, rng: root.Split(),
			rtt: cc.Template.IngressDelay + path + cc.Template.ReturnDelay,
		}
		if cc.Template.FeedbackDelay > s.maxLook {
			s.maxLook = cc.Template.FeedbackDelay
		}
		s.classes = append(s.classes, cs)
		for n := 0; n < cc.N0; n++ {
			s.spawn(j, false)
		}
		if cc.Arrival > 0 {
			s.push(event{t: cs.rng.Exp(cc.Arrival), kind: evBirth, flow: j})
		}
	}
	return s, nil
}

// spawn instantiates one session of churn class j at the current
// time: its own rng sub-stream (split from the class stream, so
// session identity is deterministic in birth order), a sampled
// lifetime, a control schedule staggered by a uniform draw, and its
// first emission. born counts arrivals only, not the initial N0.
func (s *Sim) spawn(j int, born bool) {
	cs := s.classes[j]
	fc := cs.cfg.Template
	i := len(s.flows)
	fs := &flowState{
		cfg: fc, lambda: fc.Lambda0, rng: cs.rng.Split(), rtt: cs.rtt,
		class: j, alive: true, factor: 1,
	}
	fs.interval = fc.Interval
	if fs.interval == 0 {
		fs.interval = cs.rtt
	}
	s.flows = append(s.flows, fs)
	s.push(event{t: s.t + cs.cfg.Lifetime.Sample(fs.rng), kind: evDeath, flow: i})
	if fc.Burst != nil {
		fs.modState = fc.Burst.InitState(fs.rng)
		fs.factor = fc.Burst.Factor(fs.modState)
		s.push(event{t: s.t + fc.Burst.Sojourn(fs.modState, fs.rng), kind: evModSwitch, flow: i})
	}
	// Sessions are born at arbitrary times, so a uniform stagger in
	// [1, 2) control periods replaces the static flows' index-based
	// one.
	s.push(event{t: s.t + fs.interval*(1+fs.rng.Float64()), kind: evControl, flow: i})
	s.scheduleSend(i)
	cs.live++
	if born {
		cs.born++
	}
}

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.events.Push(e)
}

// recordNode appends node h's current queue length (and gateway
// signal) to its history, whose window keeps the longest lookback.
func (s *Sim) recordNode(h int) {
	ns := s.nodes[h]
	var sig float64
	if ns.cfg.Gateway != nil {
		sig = ns.cfg.Gateway.Signal(s.t, ns.queue.Len())
	}
	ns.hist.Record(s.t, des.QueueMark{Q: ns.queue.Len(), Sig: sig}, s.t-s.maxLook-1)
}

// observePath returns the congestion value flow i's controller sees:
// the delayed path observation summed over its route.
func (s *Sim) observePath(i int, obsT float64) float64 {
	fs := s.flows[i]
	var total float64
	for _, h := range fs.cfg.Route {
		ns := s.nodes[h]
		if ns.cfg.Gateway != nil {
			total += ns.cfg.Gateway.Observe(ns.hist.Latest(obsT).Sig, fs.cfg.Law.Target(), fs.rng)
		} else {
			total += float64(ns.hist.Latest(obsT).Q)
		}
	}
	return total
}

// scheduleSend draws the next emission for flow i at its current
// effective rate λ·factor. A zero-rate flow gets no emission
// scheduled; the next control (or modulator) update reschedules when
// the rate rises.
func (s *Sim) scheduleSend(i int) {
	fs := s.flows[i]
	rate := fs.lambda * fs.factor
	if rate <= 0 {
		fs.nextAt = math.Inf(1)
		return
	}
	fs.nextAt = s.t + fs.rng.Exp(rate)
	s.push(event{t: fs.nextAt, kind: evSend, flow: i})
}

// startService begins serving the head packet at node h if idle.
func (s *Sim) startService(h int) {
	ns := s.nodes[h]
	if ns.serving || ns.queue.Len() == 0 {
		return
	}
	ns.serving = true
	s.push(event{t: s.t + ns.rng.Exp(ns.cfg.Mu), kind: evDepart, node: h})
}

// Run executes the simulation until time horizon, treating the first
// warmup seconds as transient (excluded from throughput, drop and
// queue statistics). Run may be called once per Sim.
func (s *Sim) Run(horizon, warmup float64) (*Result, error) {
	if err := des.CheckRunWindow(horizon, warmup); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	// Per-flow arrays cover the static flows; churn sessions (flow
	// indices beyond nStatic, appearing and dying at runtime) report
	// through the per-class aggregates instead.
	nStatic := len(s.cfg.Flows)
	res := &Result{
		Delivered:   make([]int64, nStatic),
		Dropped:     make([]int64, nStatic),
		Throughput:  make([]float64, nStatic),
		NodeDropped: make([]int64, len(s.nodes)),
		NodeQueue:   make([]stats.WeightedMoments, len(s.nodes)),
		FlowRTT:     make([]float64, nStatic),
	}
	for i := 0; i < nStatic; i++ {
		res.FlowRTT[i] = s.flows[i].rtt
	}
	if len(s.classes) > 0 {
		res.ChurnBorn = make([]int64, len(s.classes))
		res.ChurnDied = make([]int64, len(s.classes))
		res.ChurnLiveEnd = make([]int64, len(s.classes))
		res.ChurnLive = make([]stats.WeightedMoments, len(s.classes))
		res.ChurnDelivered = make([]int64, len(s.classes))
		res.ChurnDropped = make([]int64, len(s.classes))
		res.ChurnThroughput = make([]float64, len(s.classes))
	}
	// accrue adds node h's time-weighted queue statistic for the
	// constant stretch from its last change to now. Accumulating at
	// each node's own change points keeps the statistics O(events)
	// rather than O(nodes x events).
	accrue := func(h int, now float64) {
		ns := s.nodes[h]
		if now > warmup {
			from := math.Max(ns.lastChange, warmup)
			if w := now - from; w > 0 {
				res.NodeQueue[h].Add(float64(ns.queue.Len()), w)
			}
		}
		ns.lastChange = now
	}
	// accrueClass is the live-population analogue of accrue: the
	// time-weighted session count of class j over the constant stretch
	// since its population last changed.
	accrueClass := func(j int, now float64) {
		cs := s.classes[j]
		if now > warmup {
			from := math.Max(cs.lastChange, warmup)
			if w := now - from; w > 0 {
				res.ChurnLive[j].Add(float64(cs.live), w)
			}
		}
		cs.lastChange = now
	}
	for s.events.Len() > 0 {
		e := s.events.Pop()
		if e.t > horizon {
			break
		}
		s.t = e.t

		switch e.kind {
		case evSend:
			fs := s.flows[e.flow]
			if e.t != fs.nextAt {
				break // superseded by a reschedule
			}
			s.push(event{
				t: s.t + fs.cfg.IngressDelay, kind: evArrive,
				flow: e.flow, leg: 0, node: fs.cfg.Route[0],
			})
			s.scheduleSend(e.flow)

		case evArrive:
			ns := s.nodes[e.node]
			if ns.cfg.Buffer > 0 && ns.queue.Len() >= ns.cfg.Buffer {
				// Drop-tail loss at the finite buffer.
				if e.t > warmup {
					if c := s.flows[e.flow].class; c >= 0 {
						res.ChurnDropped[c]++
					} else {
						res.Dropped[e.flow]++
					}
					ns.drops++
				}
				break
			}
			accrue(e.node, s.t)
			ns.queue.Push(packetRef{flow: e.flow, leg: e.leg})
			s.recordNode(e.node)
			s.startService(e.node)

		case evDepart:
			ns := s.nodes[e.node]
			if ns.queue.Len() == 0 {
				break // defensive; should not happen
			}
			accrue(e.node, s.t)
			pkt := ns.queue.Pop()
			ns.serving = false
			s.recordNode(e.node)
			s.startService(e.node)
			route := s.flows[pkt.flow].cfg.Route
			if pkt.leg+1 < len(route) {
				next := route[pkt.leg+1]
				s.push(event{
					t: s.t + s.links[linkKey{e.node, next}], kind: evArrive,
					flow: pkt.flow, leg: pkt.leg + 1, node: next,
				})
			} else if s.t > warmup {
				if c := s.flows[pkt.flow].class; c >= 0 {
					res.ChurnDelivered[c]++
				} else {
					res.Delivered[pkt.flow]++
				}
			}

		case evControl:
			fs := s.flows[e.flow]
			if !fs.alive {
				break // the session died; its control loop dies with it
			}
			qObs := s.observePath(e.flow, s.t-fs.cfg.FeedbackDelay)
			fs.lambda += fs.cfg.Law.Drift(qObs, fs.lambda) * fs.interval
			if fs.lambda < fs.cfg.MinRate {
				fs.lambda = fs.cfg.MinRate
			}
			// Reschedule this flow's emissions at the new rate
			// (memorylessness makes the fresh draw unbiased).
			s.scheduleSend(e.flow)
			s.push(event{t: s.t + fs.interval, kind: evControl, flow: e.flow})

		case evModSwitch:
			fs := s.flows[e.flow]
			if !fs.alive {
				break
			}
			fs.modState = fs.cfg.Burst.Next(fs.modState, fs.rng)
			fs.factor = fs.cfg.Burst.Factor(fs.modState)
			s.push(event{t: s.t + fs.cfg.Burst.Sojourn(fs.modState, fs.rng), kind: evModSwitch, flow: e.flow})
			s.scheduleSend(e.flow)

		case evBirth:
			accrueClass(e.flow, s.t)
			s.spawn(e.flow, true)
			cs := s.classes[e.flow]
			s.push(event{t: s.t + cs.rng.Exp(cs.cfg.Arrival), kind: evBirth, flow: e.flow})

		case evDeath:
			fs := s.flows[e.flow]
			accrueClass(fs.class, s.t)
			cs := s.classes[fs.class]
			// The session stops emitting and controlling; packets
			// already in flight drain (and are counted) normally.
			fs.alive = false
			fs.lambda = 0
			fs.nextAt = math.Inf(1)
			cs.live--
			cs.died++
		}
	}
	res.FinalT = math.Min(s.t, horizon)
	// Flush each node's final constant stretch up to the last
	// processed event, matching the every-event accumulation of
	// des.Sim (the [last event, horizon] tail is excluded there
	// too). With no event after warmup nothing accrued, and the value
	// the node held since its last change is its value over the whole
	// window.
	window := horizon - warmup
	for h, ns := range s.nodes {
		accrue(h, res.FinalT)
		if res.NodeQueue[h].TotalWeight() == 0 {
			res.NodeQueue[h].Add(float64(ns.queue.Len()), window)
		}
	}
	for i := range res.Throughput {
		res.Throughput[i] = float64(res.Delivered[i]) / window
	}
	for h, ns := range s.nodes {
		res.NodeDropped[h] = ns.drops
	}
	for j, cs := range s.classes {
		accrueClass(j, res.FinalT)
		if res.ChurnLive[j].TotalWeight() == 0 {
			res.ChurnLive[j].Add(float64(cs.live), window)
		}
		res.ChurnBorn[j] = cs.born
		res.ChurnDied[j] = cs.died
		res.ChurnLiveEnd[j] = int64(cs.live)
		res.ChurnThroughput[j] = float64(res.ChurnDelivered[j]) / window
	}
	return res, nil
}

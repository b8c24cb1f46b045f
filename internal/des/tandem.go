package des

import (
	"fmt"
	"math"

	"fpcc/internal/control"
	"fpcc/internal/eventq"
	"fpcc/internal/rng"
	"fpcc/internal/window"
)

// This file extends the packet simulator from one bottleneck to a
// tandem network: packets traverse an ordered path of store-and-
// forward hops, each a FIFO queue with its own exponential server and
// a fixed propagation delay to the next hop. It reproduces the
// multi-hop observations the paper's introduction cites: Zhang [Zha
// 89] and Jacobson [Jac 88] both report that connections crossing
// more hops receive a poorer share of a shared resource. A longer
// path means a longer round trip, and with once-per-RTT control that
// means both a staler congestion signal and a slower probe — the same
// RTT coupling experiment E7 isolates, here emerging from an actual
// network rather than being injected into the law.
//
// Feedback model: the sender learns the total backlog along its path
// (the sum of the queue lengths at its hops) as it stood one path
// round-trip ago, and applies its control law every RTT. The law's
// target q̂ is interpreted against that path backlog. Each hop keeps a
// queue-length window recorded at its own changes, and the delayed
// path backlog is the sum of its lookups over the path, as in
// internal/netsim.

// TandemSource describes one flow through the network.
type TandemSource struct {
	Law     control.Law // rate law driven by the delayed path backlog
	Path    []int       // ordered hop indices the flow traverses
	Lambda0 float64     // initial sending rate (packets/s)
	MinRate float64     // probe floor
}

// TandemConfig describes a tandem-network simulation.
type TandemConfig struct {
	// Mus[h] is the service rate of hop h.
	Mus []float64
	// PropDelay is the one-way propagation delay between consecutive
	// path elements (and from the last hop back to the sender via the
	// ack path); a flow's RTT is 2·PropDelay·len(Path) plus queueing.
	PropDelay float64
	Sources   []TandemSource
	Seed      uint64
}

// Validate checks the configuration.
func (c *TandemConfig) Validate() error {
	if len(c.Mus) == 0 {
		return fmt.Errorf("des: tandem needs at least one hop")
	}
	for h, mu := range c.Mus {
		if !(mu > 0) || math.IsInf(mu, 1) {
			return fmt.Errorf("des: hop %d has invalid service rate %v", h, mu)
		}
	}
	if !(c.PropDelay > 0) || math.IsInf(c.PropDelay, 1) {
		return fmt.Errorf("des: invalid propagation delay %v", c.PropDelay)
	}
	if len(c.Sources) == 0 {
		return fmt.Errorf("des: no tandem sources")
	}
	for i, s := range c.Sources {
		if s.Law == nil {
			return fmt.Errorf("des: tandem source %d has nil law", i)
		}
		if len(s.Path) == 0 {
			return fmt.Errorf("des: tandem source %d has empty path", i)
		}
		for _, h := range s.Path {
			if h < 0 || h >= len(c.Mus) {
				return fmt.Errorf("des: tandem source %d path hop %d out of range", i, h)
			}
		}
		if math.IsInf(2*c.PropDelay*float64(len(s.Path)), 1) {
			return fmt.Errorf("des: tandem source %d round-trip time overflows (delay %v over %d hops)", i, c.PropDelay, len(s.Path))
		}
		if !validRate(s.Lambda0) || !validRate(s.MinRate) {
			return fmt.Errorf("des: tandem source %d has an invalid rate (initial %v, floor %v)", i, s.Lambda0, s.MinRate)
		}
	}
	return nil
}

// tandem event kinds.
const (
	tevSend      eventKind = iota + 100 // source emits a packet
	tevHopArrive                        // packet reaches a hop queue
	tevHopDepart                        // a hop's server finishes a packet
	tevControl                          // source control update
)

// tandemEvent extends the basic event with packet routing state.
type tandemEvent struct {
	t    float64
	kind eventKind
	src  int
	hop  int // for tevHopArrive/tevHopDepart: which hop
	leg  int // index into the packet's path
	seq  uint64
}

// Key implements eventq.Event: min-heap order on (t, seq).
func (e tandemEvent) Key() (float64, uint64) { return e.t, e.seq }

// hopState is one store-and-forward queue.
type hopState struct {
	mu      float64
	queue   FIFO[tandemPacket] // head in service when serving
	serving bool
	// hist records the queue length at every change (empty means it
	// has been 0 throughout), for delayed observation.
	hist window.Window[int]
}

// tandemPacket identifies a packet in flight.
type tandemPacket struct {
	src int
	leg int // current index into its source's path
}

// tandemSourceState is the runtime state of a flow.
type tandemSourceState struct {
	cfg    TandemSource
	lambda float64
	rng    *rng.Source
	nextAt float64
	rtt    float64
}

// TandemResult summarizes a tandem run.
type TandemResult struct {
	Delivered  []int64   // packets of each source that exited the network after warmup
	Throughput []float64 // Delivered / measurement window
	// MeanBacklog[h] is the time-average queue at hop h after warmup.
	MeanBacklog []float64
}

// TandemSim is a tandem-network simulator instance.
type TandemSim struct {
	cfg     TandemConfig
	hops    []hopState
	sources []*tandemSourceState
	events  eventq.Q[tandemEvent]
	seq     uint64
	t       float64
	rngSvc  *rng.Source
	maxRTT  float64 // longest lookback, bounding the history prune
}

// NewTandem builds a tandem simulator.
func NewTandem(cfg TandemConfig) (*TandemSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &TandemSim{cfg: cfg, rngSvc: root.Split()}
	for _, mu := range cfg.Mus {
		s.hops = append(s.hops, hopState{mu: mu})
	}
	for i, sc := range cfg.Sources {
		st := &tandemSourceState{
			cfg:    sc,
			lambda: sc.Lambda0,
			rng:    root.Split(),
			rtt:    2 * cfg.PropDelay * float64(len(sc.Path)),
		}
		s.sources = append(s.sources, st)
		s.maxRTT = math.Max(s.maxRTT, st.rtt)
		s.push(tandemEvent{t: st.rtt * (1 + float64(i)/float64(len(cfg.Sources))), kind: tevControl, src: i})
		s.scheduleSend(i)
	}
	return s, nil
}

func (s *TandemSim) push(e tandemEvent) {
	e.seq = s.seq
	s.seq++
	s.events.Push(e)
}

// recordHop appends hop h's current queue length to its history,
// whose window keeps the longest lookback.
func (s *TandemSim) recordHop(h int) {
	hs := &s.hops[h]
	hs.hist.Record(s.t, hs.queue.Len(), s.t-s.maxRTT-1)
}

// backlogAt returns source i's path backlog as of time t: the sum over
// its path of each hop's queue length at t.
func (s *TandemSim) backlogAt(i int, t float64) float64 {
	var total float64
	for _, h := range s.sources[i].cfg.Path {
		total += float64(s.hops[h].hist.Latest(t))
	}
	return total
}

// scheduleSend draws the next packet emission for source i.
func (s *TandemSim) scheduleSend(i int) {
	st := s.sources[i]
	if st.lambda <= 0 {
		st.nextAt = math.Inf(1)
		return
	}
	st.nextAt = s.t + st.rng.Exp(st.lambda)
	s.push(tandemEvent{t: st.nextAt, kind: tevSend, src: i})
}

// startService begins serving the head packet at hop h if idle.
func (s *TandemSim) startService(h int) {
	hs := &s.hops[h]
	if hs.serving || hs.queue.Len() == 0 {
		return
	}
	hs.serving = true
	s.push(tandemEvent{t: s.t + s.rngSvc.Exp(hs.mu), kind: tevHopDepart, hop: h})
}

// Run executes the tandem simulation.
func (s *TandemSim) Run(horizon, warmup float64) (*TandemResult, error) {
	if err := CheckRunWindow(horizon, warmup); err != nil {
		return nil, err
	}
	res := &TandemResult{
		Delivered:   make([]int64, len(s.sources)),
		Throughput:  make([]float64, len(s.sources)),
		MeanBacklog: make([]float64, len(s.hops)),
	}
	backlogW := make([]float64, len(s.hops))
	var lastT float64
	for s.events.Len() > 0 {
		e := s.events.Pop()
		if e.t > horizon {
			break
		}
		if e.t > warmup {
			from := math.Max(lastT, warmup)
			if w := e.t - from; w > 0 {
				for h := range s.hops {
					backlogW[h] += w * float64(s.hops[h].queue.Len())
				}
			}
		}
		lastT = math.Max(lastT, e.t)
		s.t = e.t

		switch e.kind {
		case tevSend:
			st := s.sources[e.src]
			if e.t != st.nextAt {
				break // superseded schedule
			}
			// Packet departs the sender; reaches its first hop after
			// one propagation delay.
			s.push(tandemEvent{
				t: s.t + s.cfg.PropDelay, kind: tevHopArrive,
				src: e.src, leg: 0, hop: st.cfg.Path[0],
			})
			s.scheduleSend(e.src)

		case tevHopArrive:
			s.hops[e.hop].queue.Push(tandemPacket{src: e.src, leg: e.leg})
			s.recordHop(e.hop)
			s.startService(e.hop)

		case tevHopDepart:
			hs := &s.hops[e.hop]
			if hs.queue.Len() == 0 {
				break // defensive
			}
			pkt := hs.queue.Pop()
			hs.serving = false
			s.recordHop(e.hop)
			s.startService(e.hop)
			path := s.sources[pkt.src].cfg.Path
			if pkt.leg+1 < len(path) {
				// Forward to the next hop.
				s.push(tandemEvent{
					t: s.t + s.cfg.PropDelay, kind: tevHopArrive,
					src: pkt.src, leg: pkt.leg + 1, hop: path[pkt.leg+1],
				})
			} else if s.t > warmup {
				res.Delivered[pkt.src]++
			}

		case tevControl:
			st := s.sources[e.src]
			qObs := s.backlogAt(e.src, s.t-st.rtt)
			st.lambda += st.cfg.Law.Drift(qObs, st.lambda) * st.rtt
			if st.lambda < st.cfg.MinRate {
				st.lambda = st.cfg.MinRate
			}
			if st.lambda < 0 {
				st.lambda = 0
			}
			s.scheduleSend(e.src)
			s.push(tandemEvent{t: s.t + st.rtt, kind: tevControl, src: e.src})
		}
	}
	window := horizon - warmup
	for i := range res.Throughput {
		res.Throughput[i] = float64(res.Delivered[i]) / window
	}
	for h := range res.MeanBacklog {
		res.MeanBacklog[h] = backlogW[h] / window
	}
	return res, nil
}

// RTT returns the base (propagation-only) round-trip time of source i.
func (s *TandemSim) RTT(i int) float64 { return s.sources[i].rtt }

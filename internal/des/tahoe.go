package des

import (
	"fmt"
	"math"

	"fpcc/internal/eventq"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
)

// This file implements an ack-clocked window protocol in the style of
// Jacobson's 1988 TCP (Tahoe): slow start, congestion avoidance, and
// timeout recovery against a finite drop-tail buffer. It is the
// protocol whose rate abstraction the paper analyzes (Equation 1 is
// its congestion-avoidance half), and it reproduces the observations
// the paper cites from Jacobson's measurements and Zhang's simulations
// — notably that flows with longer round-trip times obtain smaller
// shares of a shared bottleneck, the starting point of the Section 7
// unfairness analysis.
//
// The model: each flow has a one-way propagation delay D. A sent
// packet reaches the bottleneck after D, waits in a finite FIFO served
// at exponential rate Mu, and its ack returns to the sender D after
// service completes (RTT = 2D + queueing + service). A packet arriving
// at a full buffer is dropped; the sender notices via a retransmission
// timeout RTO after the send and enters Tahoe recovery
// (ssthresh ← max(cwnd/2, 2), cwnd ← 1).

// TahoeFlowConfig describes one window-controlled flow.
type TahoeFlowConfig struct {
	// PropDelay is the one-way propagation delay D (seconds).
	PropDelay float64
	// RTO is the fixed retransmission timeout (seconds). Real TCP
	// estimates it from RTT samples; a fixed multiple of the true RTT
	// keeps the model analyzable. Must exceed the unloaded RTT.
	RTO float64
}

// initialSSThresh seeds every flow's ssthresh (packets): large enough
// that the first slow start probes up to buffer overflow, as TCP does.
const initialSSThresh = 1e9

// TahoeConfig describes a Tahoe simulation.
type TahoeConfig struct {
	Mu     float64 // bottleneck service rate (packets/s)
	Buffer int     // queue capacity (packets, including the one in service)
	Flows  []TahoeFlowConfig
	Seed   uint64
	// SampleEvery records queue and per-flow cwnd every so many
	// seconds (0 disables tracing).
	SampleEvery float64
}

// Validate checks the configuration.
func (c *TahoeConfig) Validate() error {
	if !(c.Mu > 0) || math.IsInf(c.Mu, 1) {
		return fmt.Errorf("des: tahoe service rate must be positive, got %v", c.Mu)
	}
	if c.Buffer < 2 {
		return fmt.Errorf("des: tahoe buffer must hold at least 2 packets, got %d", c.Buffer)
	}
	if len(c.Flows) == 0 {
		return fmt.Errorf("des: tahoe needs at least one flow")
	}
	for i, f := range c.Flows {
		switch {
		case !(f.PropDelay > 0):
			return fmt.Errorf("des: flow %d propagation delay must be positive, got %v", i, f.PropDelay)
		case !(f.RTO > 2*f.PropDelay) || math.IsInf(f.RTO, 1):
			// An infinite RTO never fires, so a lost packet is never
			// recovered.
			return fmt.Errorf("des: flow %d RTO %v must be finite and exceed the unloaded RTT %v", i, f.RTO, 2*f.PropDelay)
		}
	}
	if !(c.SampleEvery >= 0) || math.IsInf(c.SampleEvery, 1) {
		return fmt.Errorf("des: invalid sample period %v", c.SampleEvery)
	}
	return nil
}

// tahoeEventKind enumerates Tahoe simulator events.
type tahoeEventKind int

const (
	tevQueueArrive tahoeEventKind = iota // packet reaches the bottleneck
	tevService                           // bottleneck finishes a packet
	tevAck                               // ack reaches the sender
	tevTimeout                           // retransmission timer fires
)

// tahoeEvent is one scheduled Tahoe occurrence.
type tahoeEvent struct {
	t    float64
	kind tahoeEventKind
	flow int
	id   uint64 // packet id (for timeout matching)
	seq  uint64 // heap tie-breaker
}

// Key implements eventq.Event: min-heap order on (t, seq).
func (e tahoeEvent) Key() (float64, uint64) { return e.t, e.seq }

// tahoeFlow is the runtime state of one flow.
type tahoeFlow struct {
	cfg      TahoeFlowConfig
	cwnd     float64
	ssthresh float64
	inflight int
	nextID   uint64
	// sent holds each unresolved packet by id, from its send until
	// its ack or, once it is lost, its timeout.
	sent map[uint64]tahoeSent
	// lastRecovery is the time of the last timeout recovery; timeouts
	// for packets sent before it are stale and ignored (one recovery
	// per loss burst, as a real coarse-grained timer behaves).
	lastRecovery float64
	acked        int64
	drops        int64
}

// tahoeSent is the state of one sent, unresolved packet.
type tahoeSent struct {
	sentAt float64
	// lost marks a packet dropped at the buffer: its timeout triggers
	// recovery unless an earlier recovery superseded it.
	lost bool
}

// tahoePacket identifies a queued packet: its flow and its id.
type tahoePacket struct {
	flow int
	id   uint64
}

// TahoeResult summarizes a Tahoe run.
type TahoeResult struct {
	// Throughput[i] is acked packets/s for flow i after warmup.
	Throughput []float64
	// Acked[i] counts acked packets after warmup; Drops[i] the
	// buffer drops attributed to the flow over the whole run.
	Acked []int64
	Drops []int64
	// TraceT, TraceQ sample the queue; TraceW[i] samples flow i's
	// cwnd (present when SampleEvery > 0).
	TraceT []float64
	TraceQ []float64
	TraceW [][]float64
	// QueueStats aggregates the time-weighted queue after warmup.
	QueueStats stats.WeightedMoments
	// MeanRTT[i] is the average measured round-trip time of acked
	// packets after warmup.
	MeanRTT []float64
}

// TahoeSim is the ack-clocked window simulator.
type TahoeSim struct {
	cfg    TahoeConfig
	flows  []*tahoeFlow
	events eventq.Q[tahoeEvent]
	seq    uint64
	t      float64
	queue  int
	fifo   FIFO[tahoePacket]
	rng    *rng.Source
}

// NewTahoe builds a Tahoe simulator.
func NewTahoe(cfg TahoeConfig) (*TahoeSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &TahoeSim{cfg: cfg, rng: root.Split()}
	for i, fc := range cfg.Flows {
		f := &tahoeFlow{
			cfg: fc, cwnd: 1, ssthresh: initialSSThresh,
			sent: make(map[uint64]tahoeSent), lastRecovery: -1,
		}
		s.flows = append(s.flows, f)
		s.trySend(i)
	}
	return s, nil
}

func (s *TahoeSim) push(e tahoeEvent) {
	e.seq = s.seq
	s.seq++
	s.events.Push(e)
}

// trySend launches packets while the window allows.
func (s *TahoeSim) trySend(i int) {
	f := s.flows[i]
	for f.inflight < int(f.cwnd) {
		id := f.nextID
		f.nextID++
		f.inflight++
		f.sent[id] = tahoeSent{sentAt: s.t}
		s.push(tahoeEvent{t: s.t + f.cfg.PropDelay, kind: tevQueueArrive, flow: i, id: id})
		// The timeout is armed at send time; it is a no-op unless the
		// packet is dropped.
		s.push(tahoeEvent{t: s.t + f.cfg.RTO, kind: tevTimeout, flow: i, id: id})
	}
}

// Run executes the simulation until the horizon, excluding the first
// warmup seconds from throughput and queue statistics. Run may be
// called once per TahoeSim.
func (s *TahoeSim) Run(horizon, warmup float64) (*TahoeResult, error) {
	if err := CheckRunWindow(horizon, warmup); err != nil {
		return nil, err
	}
	n := len(s.flows)
	res := &TahoeResult{
		Throughput: make([]float64, n),
		Acked:      make([]int64, n),
		Drops:      make([]int64, n),
		TraceW:     make([][]float64, n),
		MeanRTT:    make([]float64, n),
	}
	rttSum := make([]float64, n)
	nextSample := 0.0
	lastQChange := 0.0
	for s.events.Len() > 0 {
		e := s.events.Pop()
		if e.t > horizon {
			break
		}
		if s.cfg.SampleEvery > 0 {
			for nextSample <= e.t {
				res.TraceT = append(res.TraceT, nextSample)
				res.TraceQ = append(res.TraceQ, float64(s.queue))
				for i, f := range s.flows {
					res.TraceW[i] = append(res.TraceW[i], f.cwnd)
				}
				nextSample += s.cfg.SampleEvery
			}
		}
		if e.t > warmup {
			from := math.Max(lastQChange, warmup)
			if w := e.t - from; w > 0 {
				res.QueueStats.Add(float64(s.queue), w)
			}
			lastQChange = e.t
		}
		s.t = e.t
		f := s.flows[e.flow]

		switch e.kind {
		case tevQueueArrive:
			if s.queue >= s.cfg.Buffer {
				// Drop-tail: mark lost; the armed timeout will fire.
				p := f.sent[e.id]
				p.lost = true
				f.sent[e.id] = p
				f.drops++
				break
			}
			s.queue++
			s.fifo.Push(tahoePacket{flow: e.flow, id: e.id})
			if s.queue == 1 {
				s.push(tahoeEvent{t: s.t + s.rng.Exp(s.cfg.Mu), kind: tevService})
			}

		case tevService:
			if s.queue == 0 {
				break // defensive; should not happen
			}
			pkt := s.fifo.Pop()
			s.queue--
			if s.queue > 0 {
				s.push(tahoeEvent{t: s.t + s.rng.Exp(s.cfg.Mu), kind: tevService})
			}
			of := s.flows[pkt.flow]
			s.push(tahoeEvent{t: s.t + of.cfg.PropDelay, kind: tevAck, flow: pkt.flow, id: pkt.id})

		case tevAck:
			p, ok := f.sent[e.id]
			if !ok {
				break // already resolved (e.g. counted lost then served — cannot happen, defensive)
			}
			delete(f.sent, e.id)
			f.inflight--
			f.acked++
			if s.t > warmup {
				res.Acked[e.flow]++
				rttSum[e.flow] += s.t - p.sentAt
			}
			// Tahoe window growth.
			if f.cwnd < f.ssthresh {
				f.cwnd++ // slow start: double per RTT
			} else {
				f.cwnd += 1 / f.cwnd // congestion avoidance: +1 per RTT
			}
			s.trySend(e.flow)

		case tevTimeout:
			p := f.sent[e.id]
			if !p.lost {
				break // the packet was delivered; stale timer
			}
			delete(f.sent, e.id)
			f.inflight--
			// Coarse timer: collapse once per loss burst — packets
			// sent before the last recovery ride the same event.
			if p.sentAt > f.lastRecovery {
				f.ssthresh = math.Max(f.cwnd/2, 2)
				f.cwnd = 1
				f.lastRecovery = s.t
			}
			s.trySend(e.flow)
		}
	}
	window := horizon - warmup
	for i, f := range s.flows {
		res.Throughput[i] = float64(res.Acked[i]) / window
		res.Drops[i] = f.drops
		if res.Acked[i] > 0 {
			res.MeanRTT[i] = rttSum[i] / float64(res.Acked[i])
		}
	}
	return res, nil
}

// Package des is a packet-level discrete-event simulator of the
// system the paper models: N sources send Poisson packet streams at
// controller-adjusted rates into one bottleneck FIFO queue served at
// exponential rate μ; each source observes the queue length with its
// own feedback delay and applies its rate-control law periodically
// (the rate analogue of once-per-RTT window updates).
//
// This is the "real" stochastic system whose transient behaviour the
// Fokker-Planck equation approximates, and the substitute for the
// measurement/simulation substrates the 1991 paper drew on (Jacobson's
// traces, Zhang's simulator): we need only the qualitative shapes —
// convergence, oscillation under delay, fair/unfair shares — which a
// Poisson packet simulator exhibits.
//
// The engine is a classic binary-heap event loop, deterministic for a
// given seed. Delayed feedback is exact: the queue-length history is
// recorded at every change and a controller firing at time t reads
// Q(t−τ) from it.
package des

import (
	"fmt"
	"math"
	"sort"

	"fpcc/internal/control"
	"fpcc/internal/eventq"
	"fpcc/internal/obs"
	"fpcc/internal/rng"
	"fpcc/internal/stats"
	"fpcc/internal/traffic"
	"fpcc/internal/window"
)

// eventKind enumerates the simulator's event types.
type eventKind int

const (
	evArrival   eventKind = iota // a packet arrives at the queue
	evDeparture                  // the server finishes a packet
	evControl                    // a source applies its control law
	evModSwitch                  // a source's burst modulator changes state
)

// event is one scheduled occurrence. src identifies the source for
// arrivals and control updates.
type event struct {
	t    float64
	kind eventKind
	src  int
	seq  uint64 // tie-breaker for deterministic ordering
}

// Key implements eventq.Event: min-heap order on (t, seq).
func (e event) Key() (float64, uint64) { return e.t, e.seq }

// SourceConfig describes one sender.
type SourceConfig struct {
	Law      control.Law // rate-control law
	Delay    float64     // feedback delay τ (age of the queue sample at the controller)
	Interval float64     // control-update period Δ (e.g. one RTT)
	Lambda0  float64     // initial sending rate (packets/s)
	MinRate  float64     // rate floor (> 0 keeps a silenced source probing)

	// Burst, when non-nil, modulates the source's instantaneous
	// arrival rate: packets are emitted at λ(t)·Factor(state) with the
	// state evolving per the modulator (MMPP, on/off, square wave —
	// see internal/traffic). The controller still adjusts the nominal
	// λ; the modulation is the uncontrolled short-timescale burstiness
	// that real applications superimpose on their mean rate.
	Burst traffic.Modulator

	// ImplicitLoss switches the source to the *implicit* feedback of
	// the paper's opening sentence (and of Jacobson's TCP): instead
	// of observing the queue length, the controller observes whether
	// any of its own packets were dropped at the (finite) buffer
	// during the last control interval, delayed by Delay. A loss maps
	// to "congested" (the law sees q̂+1, taking its decrease branch);
	// no loss maps to 0 (increase branch). Requires Config.Buffer > 0
	// — an infinite buffer never drops, so the signal never fires.
	ImplicitLoss bool
}

// Config describes a simulation run.
type Config struct {
	Mu      float64 // bottleneck service rate (packets/s)
	Sources []SourceConfig
	Seed    uint64
	// SampleEvery records the queue length every SampleEvery seconds
	// into the trace (0 disables tracing).
	SampleEvery float64
	// Gateway, when non-nil, owns the congestion signal: the recorded
	// feedback history holds Gateway.Signal (e.g. an EWMA of the
	// queue) and each control update passes the delayed signal
	// through Gateway.Observe (e.g. RED marking) before the law sees
	// it. Nil means the paper's transparent gateway — the raw queue
	// length.
	Gateway Gateway
	// Buffer, when positive, bounds the queue (including the packet
	// in service): arrivals beyond it are dropped, as at a real
	// router. 0 means the paper's infinite queue. Finite buffers are
	// required for ImplicitLoss sources.
	Buffer int

	// Obs, when non-nil, receives a rate-limited queue-length probe
	// (des.q), end-of-run counters (des.delivered, des.dropped,
	// des.events), and, when it enables invariants, per-event checks
	// that the queue stays non-negative, the FIFO owner list matches
	// the queue length, and the history timestamps never regress. A
	// failing check aborts Run with a step-stamped error. The nil
	// default costs one branch per event and never changes any
	// observable.
	Obs *obs.Recorder
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if !(c.Mu > 0) || math.IsInf(c.Mu, 1) {
		return fmt.Errorf("des: service rate must be positive, got %v", c.Mu)
	}
	if len(c.Sources) == 0 {
		return fmt.Errorf("des: no sources")
	}
	for i, s := range c.Sources {
		switch {
		case s.Law == nil:
			return fmt.Errorf("des: source %d has nil law", i)
		case !(s.Interval > 0) || math.IsInf(s.Interval, 1):
			return fmt.Errorf("des: source %d has invalid control interval %v", i, s.Interval)
		case !(s.Delay >= 0):
			return fmt.Errorf("des: source %d has negative delay %v", i, s.Delay)
		case !validRate(s.Lambda0):
			return fmt.Errorf("des: source %d has invalid initial rate %v", i, s.Lambda0)
		case !validRate(s.MinRate):
			return fmt.Errorf("des: source %d has invalid rate floor %v", i, s.MinRate)
		case s.ImplicitLoss && c.Buffer <= 0:
			return fmt.Errorf("des: source %d uses implicit loss feedback but the buffer is infinite (set Config.Buffer)", i)
		case s.ImplicitLoss && c.Gateway != nil:
			return fmt.Errorf("des: source %d mixes implicit loss feedback with a gateway; the loss signal bypasses the gateway", i)
		}
	}
	if c.Buffer < 0 {
		return fmt.Errorf("des: negative buffer %d", c.Buffer)
	}
	if !(c.SampleEvery >= 0) || math.IsInf(c.SampleEvery, 1) {
		return fmt.Errorf("des: invalid sample period %v", c.SampleEvery)
	}
	return nil
}

// validRate reports whether r is a finite, non-negative rate: a NaN
// or infinite one would reach rng.Exp as an arrival rate.
func validRate(r float64) bool { return r >= 0 && !math.IsInf(r, 1) }

// sourceState is the runtime state of one sender.
type sourceState struct {
	cfg    SourceConfig
	lambda float64
	rng    *rng.Source
	nextAt float64 // next scheduled arrival time (rescheduled on rate change)
	// Burst-modulation state (factor = 1 when cfg.Burst is nil).
	modState int
	factor   float64
	// dropT records the times of this source's buffer drops (pruned
	// alongside the queue history; used by ImplicitLoss observation).
	dropT []float64
}

// Result summarizes a run.
type Result struct {
	// Trace of queue length over time (present when SampleEvery > 0).
	TraceT []float64
	TraceQ []float64
	// Rate[i] aggregates source i's rate after each of its control
	// updates at or after warmup (an update exactly at warmup counts).
	Rate []stats.Moments
	// Delivered[i] counts packets of source i that completed service
	// after warmup.
	Delivered []int64
	// Dropped[i] counts source i's packets lost at the finite buffer
	// after warmup (always 0 with an infinite buffer).
	Dropped []int64
	// Throughput[i] is Delivered[i] / measurement window (packets/s).
	Throughput []float64
	// QueueStats aggregates the time-weighted queue length after
	// warmup.
	QueueStats stats.WeightedMoments
}

// Sim is the simulator instance. Create with New, execute with Run.
type Sim struct {
	cfg     Config
	sources []*sourceState
	events  eventq.Q[event]
	seq     uint64
	t       float64
	queue   int       // packets in system
	owners  FIFO[int] // source id of each queued packet, in service order
	serving bool
	rngSvc  *rng.Source
	// queue-length history for delayed observation
	hist     window.Window[QueueMark]
	maxDelay float64
}

// QueueMark is one record of a queue's history for delayed
// observation: the queue length after a change and, when a gateway
// owns the congestion signal, the gateway's wire signal (0 without
// one). Sim and the nodes of internal/netsim record one at every queue
// change, so a controller observing with delay τ reads the state
// exactly as it stood at t−τ.
type QueueMark struct {
	Q   int
	Sig float64
}

// New builds a simulator.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	s := &Sim{cfg: cfg, rngSvc: root.Split()}
	var sig0 float64
	if cfg.Gateway != nil {
		cfg.Gateway.Reset()
		sig0 = cfg.Gateway.Signal(0, 0)
	}
	s.hist.Record(0, QueueMark{Sig: sig0}, 0)
	for i, sc := range cfg.Sources {
		st := &sourceState{cfg: sc, lambda: sc.Lambda0, rng: root.Split(), factor: 1}
		s.sources = append(s.sources, st)
		look := sc.Delay
		if sc.ImplicitLoss {
			look = sc.Delay + sc.Interval
		}
		if look > s.maxDelay {
			s.maxDelay = look
		}
		if sc.Burst != nil {
			st.modState = sc.Burst.InitState(st.rng)
			st.factor = sc.Burst.Factor(st.modState)
			s.push(event{t: sc.Burst.Sojourn(st.modState, st.rng), kind: evModSwitch, src: i})
		}
		// First control update staggered by source index to avoid
		// artificial lock-step across sources.
		stagger := sc.Interval * (1 + float64(i)/float64(len(cfg.Sources)))
		s.push(event{t: stagger, kind: evControl, src: i})
		s.scheduleArrival(i)
	}
	return s, nil
}

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.events.Push(e)
}

// recordQueue appends the current queue length (and gateway signal)
// to the history, whose window keeps the longest lookback.
func (s *Sim) recordQueue() {
	var sig float64
	if s.cfg.Gateway != nil {
		sig = s.cfg.Gateway.Signal(s.t, s.queue)
	}
	s.hist.Record(s.t, QueueMark{Q: s.queue, Sig: sig}, s.t-s.maxDelay-1)
}

// pruneDrops discards drop records older than cut, keeping the slice
// bounded.
func (st *sourceState) pruneDrops(cut float64) {
	k := sort.SearchFloat64s(st.dropT, cut)
	if k > 0 {
		st.dropT = append(st.dropT[:0], st.dropT[k:]...)
	}
}

// lossIn reports whether this source lost a packet in (a, b].
func (st *sourceState) lossIn(a, b float64) bool {
	// First drop time > a; is it ≤ b?
	k := sort.SearchFloat64s(st.dropT, a)
	for k < len(st.dropT) && st.dropT[k] <= a {
		k++
	}
	return k < len(st.dropT) && st.dropT[k] <= b
}

// scheduleArrival draws the next interarrival for source i at its
// current effective rate λ·factor. A zero-rate source gets no arrival
// scheduled; the next control update or modulator switch reschedules
// when the rate rises. Superseded arrival events are detected by
// comparing against nextAt.
func (s *Sim) scheduleArrival(i int) {
	st := s.sources[i]
	rate := st.lambda * st.factor
	if rate <= 0 {
		st.nextAt = math.Inf(1)
		return
	}
	st.nextAt = s.t + st.rng.Exp(rate)
	s.push(event{t: st.nextAt, kind: evArrival, src: i})
}

// CheckRunWindow is the run-window check of every packet engine's Run
// (Sim, TahoeSim, TandemSim and netsim.Sim): a finite horizon > 0 and
// a finite warmup in [0, horizon). A NaN warmup would make every
// post-warmup statistic NaN, and an infinite horizon would never end,
// because control events keep rescheduling.
func CheckRunWindow(horizon, warmup float64) error {
	if !(horizon > 0) || math.IsInf(horizon, 1) || !(warmup >= 0) || !(warmup < horizon) {
		return fmt.Errorf("des: invalid horizon %v / warmup %v: want a finite horizon > 0 and a warmup in [0, horizon)", horizon, warmup)
	}
	return nil
}

// Run executes the simulation until time horizon, treating the first
// warmup seconds as transient (excluded from throughput and queue
// statistics). Run may be called once per Sim.
func (s *Sim) Run(horizon, warmup float64) (*Result, error) {
	if err := CheckRunWindow(horizon, warmup); err != nil {
		return nil, err
	}
	res := &Result{
		Delivered:  make([]int64, len(s.sources)),
		Dropped:    make([]int64, len(s.sources)),
		Throughput: make([]float64, len(s.sources)),
		Rate:       make([]stats.Moments, len(s.sources)),
	}
	nextSample := 0.0
	lastQChange := 0.0
	var nEvents int64 // processed events, stamping probes and violations
	for s.events.Len() > 0 {
		e := s.events.Pop()
		if e.t > horizon {
			break
		}
		// Trace sampling between events (piecewise-constant queue).
		if s.cfg.SampleEvery > 0 {
			for nextSample <= e.t {
				res.TraceT = append(res.TraceT, nextSample)
				res.TraceQ = append(res.TraceQ, float64(s.queue))
				nextSample += s.cfg.SampleEvery
			}
		}
		// Time-weighted queue statistics after warmup.
		if e.t > warmup {
			from := math.Max(lastQChange, warmup)
			if w := e.t - from; w > 0 {
				res.QueueStats.Add(float64(s.queue), w)
			}
			lastQChange = e.t
		}
		s.t = e.t

		switch e.kind {
		case evArrival:
			st := s.sources[e.src]
			if e.t != st.nextAt {
				break // superseded by a reschedule
			}
			if s.cfg.Buffer > 0 && s.queue >= s.cfg.Buffer {
				// Drop-tail loss at the finite buffer.
				st.dropT = append(st.dropT, s.t)
				if len(st.dropT) > 4096 {
					st.pruneDrops(s.t - s.maxDelay - 1)
				}
				if e.t > warmup {
					res.Dropped[e.src]++
				}
				s.scheduleArrival(e.src)
				break
			}
			s.queue++
			s.owners.Push(e.src)
			s.recordQueue()
			if !s.serving {
				s.serving = true
				s.push(event{t: s.t + s.rngSvc.Exp(s.cfg.Mu), kind: evDeparture})
			}
			s.scheduleArrival(e.src)

		case evDeparture:
			if s.queue == 0 {
				break // defensive; should not happen
			}
			owner := s.owners.Pop()
			s.queue--
			s.recordQueue()
			if s.t > warmup {
				res.Delivered[owner]++
			}
			if s.queue > 0 {
				s.push(event{t: s.t + s.rngSvc.Exp(s.cfg.Mu), kind: evDeparture})
			} else {
				s.serving = false
			}

		case evControl:
			st := s.sources[e.src]
			// The controller sees the queue as it was Delay seconds
			// ago, read from the recorded history (exact, not an
			// approximation), or the gateway's filtered signal.
			obsT := s.t - st.cfg.Delay
			var qObs float64
			switch {
			case st.cfg.ImplicitLoss:
				// Implicit feedback: congested iff one of this
				// source's packets was dropped during the last
				// control interval (observed Delay late).
				if st.lossIn(obsT-st.cfg.Interval, obsT) {
					qObs = st.cfg.Law.Target() + 1
				}
			case s.cfg.Gateway != nil:
				qObs = s.cfg.Gateway.Observe(s.hist.Latest(obsT).Sig, st.cfg.Law.Target(), st.rng)
			default:
				qObs = float64(s.hist.Latest(obsT).Q)
			}
			st.lambda += st.cfg.Law.Drift(qObs, st.lambda) * st.cfg.Interval
			if st.lambda < st.cfg.MinRate {
				st.lambda = st.cfg.MinRate
			}
			if st.lambda < 0 {
				st.lambda = 0
			}
			if s.t >= warmup {
				res.Rate[e.src].Add(st.lambda)
			}
			// Reschedule this source's arrivals at the new rate
			// (memorylessness makes the fresh draw unbiased).
			s.scheduleArrival(e.src)
			s.push(event{t: s.t + st.cfg.Interval, kind: evControl, src: e.src})

		case evModSwitch:
			st := s.sources[e.src]
			st.modState = st.cfg.Burst.Next(st.modState, st.rng)
			st.factor = st.cfg.Burst.Factor(st.modState)
			s.push(event{t: s.t + st.cfg.Burst.Sojourn(st.modState, st.rng), kind: evModSwitch, src: e.src})
			s.scheduleArrival(e.src)
		}
		nEvents++
		if rec := s.cfg.Obs; rec.Enabled() {
			if rec.ProbeDue("des.q", s.t) {
				rec.Probe("des.q", s.t, float64(s.queue))
			}
			if rec.Invariants() {
				// Every arrival pushes one FIFO owner and every
				// departure pops one, so the owner arena and the
				// queue counter must agree at every event.
				if s.queue < 0 || s.owners.Len() != s.queue {
					return nil, rec.Violationf(nEvents, s.t, "des.queue",
						"queue %d with %d FIFO owners", s.queue, s.owners.Len())
				}
				if err := rec.CheckMonotoneTail(nEvents, "des.history", s.hist.TailTimes()); err != nil {
					return nil, err
				}
			}
		}
	}
	if rec := s.cfg.Obs; rec.Enabled() {
		var delivered, dropped int64
		for i := range res.Delivered {
			delivered += res.Delivered[i]
			dropped += res.Dropped[i]
		}
		rec.Count("des.delivered", delivered)
		rec.Count("des.dropped", dropped)
		rec.Count("des.events", nEvents)
	}
	// With no event after warmup nothing accrued, and the queue held
	// since the last event is its value over the whole window.
	window := horizon - warmup
	if res.QueueStats.TotalWeight() == 0 {
		res.QueueStats.Add(float64(s.queue), window)
	}
	for i := range res.Throughput {
		res.Throughput[i] = float64(res.Delivered[i]) / window
	}
	return res, nil
}

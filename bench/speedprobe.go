package main

import (
	"math"
	"time"
)

// The speed probe times six fixed loops that belong to the benchmark,
// not to the program: floating-point throughput (exp and log), an
// integer and a floating-point dependency chain, stencil sweeps over
// an L2-sized and an L3-sized array, and random reads from the larger
// one. On a shared host the same code runs up to 1.8 times slower in
// spells that last seconds to minutes, and how much slower depends on
// the code's instruction mix and working set. Dividing each
// experiment's time by the probe's, taken just before and just after
// it, removes much of that (README.md, The speed probe). No change to
// the program changes the probe, so a change of the ratio is a change
// of the program.

// speedSink keeps the probe loops' results alive.
var speedSink float64

var (
	speedL2 = make([]float64, 32<<10)  // 256 KiB
	speedL3 = make([]float64, 512<<10) // 4 MiB
)

func speedExpLog() {
	s, v := 0.0, 1.0001
	for range 300_000 {
		v = v*1.0000001 + 1e-9
		s += math.Exp(-v) + math.Log(v)
	}
	speedSink += s
}

func speedIntChain() {
	x := uint64(88172645463325252)
	for range 4_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	speedSink += float64(x >> 11)
}

func speedFloatChain() {
	v := 0.5
	for range 3_000_000 {
		v = v*3.7*(1-v) + 1e-12
	}
	speedSink += v
}

func speedSweep(a []float64, times int) {
	for range times {
		for i := 1; i < len(a); i++ {
			a[i] = 0.5*a[i] + 0.25*a[i-1] + 1e-3
		}
	}
	speedSink += a[len(a)-1]
}

func speedSweepL2() { speedSweep(speedL2, 60) }

func speedSweepL3() { speedSweep(speedL3, 4) }

func speedGather() {
	a, mask := speedL3, uint32(len(speedL3)-1)
	s, idx := 0.0, uint32(1)
	for range 4_000_000 {
		idx = idx*1664525 + 1013904223
		s += a[(idx>>8)&mask]
	}
	speedSink += s
}

var speedLoops = []func(){speedExpLog, speedIntChain, speedFloatChain, speedSweepL2, speedSweepL3, speedGather}

// speedProbe returns the geometric mean of the loops' times in seconds.
// Each loop takes about 10 ms on a 2-vCPU Xeon VM.
func speedProbe() float64 {
	logSum := 0.0
	for _, f := range speedLoops {
		start := time.Now()
		f()
		logSum += math.Log(time.Since(start).Seconds())
	}
	return math.Exp(logSum / float64(len(speedLoops)))
}

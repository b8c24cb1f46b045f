// Package rng provides a small, deterministic pseudo-random number
// generator with the distributions needed by the simulators in this
// repository: uniform, exponential, Poisson and normal variates.
//
// Every stochastic component in the repository (the packet-level
// discrete-event simulator, the SDE particle ensembles) draws from an
// *rng.Source seeded explicitly, so whole experiments are reproducible
// from a single integer seed. Sources can be split into independent
// streams, which keeps per-source randomness stable when the number of
// simulated senders changes.
//
// FillNorm is the batch form of Norm for particle loops that need one
// normal per particle: it fills a slice with exactly the values that
// the same number of successive Norm calls would return, bit for bit,
// and leaves the Source in exactly the state those calls would. A loop
// can therefore switch between the two without changing any result.
//
// The core generator is SplitMix64 feeding xoshiro256**, the same
// construction used by modern language runtimes; it is not
// cryptographically secure and is not meant to be.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic stream of pseudo-random numbers.
// It is not safe for concurrent use; split one Source per goroutine.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns a well-mixed 64-bit value. It is
// used only for seeding and splitting, never for output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix advances x by the golden-ratio increment and returns its
// SplitMix64 finalizer: a cheap, well-mixed hash for deriving
// deterministic sub-seeds (e.g. per-cell seeds of a parameter sweep)
// from a base seed, using the same mixing this package seeds with.
func Mix(x uint64) uint64 {
	return splitMix64(&x)
}

// New returns a Source seeded from seed. Two Sources built from the
// same seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed re-initializes the Source in place from seed, discarding all
// internal state.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitMix64 of any
	// seed cannot produce four zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 pseudo-random bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	var u uint64
	u, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return u
}

// xoshiro is one xoshiro256** step on a state held in values: it
// returns the output and the next state. It is the one copy of the
// recurrence; Uint64 applies it to the Source, and Norm and FillNorm
// run it on locals so the state stays in registers.
func xoshiro(s0, s1, s2, s3 uint64) (u, n0, n1, n2, n3 uint64) {
	u = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return u, s0, s1, s2, s3
}

// Split returns a new Source whose stream is statistically independent
// of the receiver's continuation. The receiver is advanced.
func (r *Source) Split() *Source {
	x := r.Uint64()
	var child Source
	for i := range child.s {
		child.s[i] = splitMix64(&x)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return &child
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of
// precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n %d", n))
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0 or is not finite.
func (r *Source) Exp(rate float64) float64 {
	if !(rate > 0) || math.IsInf(rate, 1) {
		panic(fmt.Sprintf("rng: Exp with invalid rate %v", rate))
	}
	// -log(1-U) avoids log(0) because Float64 never returns 1.
	return -math.Log1p(-r.Float64()) / rate
}

// Ziggurat tables for the standard normal density f(x) = exp(-x²/2)
// (unnormalized), 256 layers of equal area zigV with tail boundary
// zigR (Doornik's constants). zigX[i] is the horizontal extent of
// layer i (decreasing; zigX[0] is the virtual base width V/f(R),
// zigX[1] = R, zigX[256] = 0) and zigF[i] = f(zigX[i]).
const (
	zigLayers = 256
	zigR      = 3.6541528853610088
	zigV      = 4.92867323399e-3
)

var zigX, zigF [zigLayers + 1]float64

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	zigX[0] = zigV / f(zigR)
	zigX[1] = zigR
	for i := 2; i < zigLayers; i++ {
		// Invert f at the top of the previous layer; the argument
		// approaches 1 from below and float rounding could push it
		// over, so clamp the last steps to the peak.
		arg := zigV/zigX[i-1] + f(zigX[i-1])
		if arg >= 1 {
			zigX[i] = 0
		} else {
			zigX[i] = math.Sqrt(-2 * math.Log(arg))
		}
	}
	zigX[zigLayers] = 0
	for i := range zigX {
		zigF[i] = f(zigX[i])
	}
}

// Norm returns a standard normal variate (mean 0, variance 1) using
// the 256-layer ziggurat method: the common case costs one xoshiro
// step, a table compare and a multiply, roughly an order of magnitude
// cheaper than the Box-Muller transform it replaced — Norm dominates
// every Monte-Carlo particle step (sde, meanfield), so its cost is
// directly visible in the E9/E10 wall times. The common case runs
// here; the ~1% of draws that miss the layer's core rectangle finish
// in normMiss.
func (r *Source) Norm() float64 {
	var u uint64
	u, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	i := u & (zigLayers - 1)                          // bits 0..7: layer
	x := float64(u>>11) * (1.0 / (1 << 53)) * zigX[i] // bits 11..63: uniform [0,1) across the layer
	if x < zigX[i+1] {
		// Strictly inside the layer's core rectangle. The sign (bit 8)
		// is applied by ORing it into the float's sign bit rather than
		// branching: the branch would be a coin flip, unpredictable by
		// construction.
		return math.Float64frombits(math.Float64bits(x) | (u&0x100)<<55)
	}
	return r.normMiss(u)
}

// FillNorm fills dst with standard normal variates. The values are
// bit-identical to len(dst) successive Norm calls, and the Source is
// left in the state those calls would leave it in, so a caller may
// trade a loop of Norm calls for one FillNorm without changing any
// result. The xoshiro state stays in locals across the whole fill;
// it is written back to the Source only around the rare normMiss.
func (r *Source) FillNorm(dst []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := range dst {
		var u uint64
		u, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		i := u & (zigLayers - 1)
		x := float64(u>>11) * (1.0 / (1 << 53)) * zigX[i]
		if x < zigX[i+1] {
			dst[k] = math.Float64frombits(math.Float64bits(x) | (u&0x100)<<55)
			continue
		}
		r.s = [4]uint64{s0, s1, s2, s3}
		dst[k] = r.normMiss(u)
		s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// normMiss finishes a ziggurat draw whose first candidate u fell
// outside its layer's core rectangle: the base layer goes to the
// tail, any other layer to the wedge test, and a rejected candidate
// is replaced by a fresh draw until one is accepted.
func (r *Source) normMiss(u uint64) float64 {
	for {
		i := u & (zigLayers - 1)
		sign := (u & 0x100) << 55
		x := float64(u>>11) * (1.0 / (1 << 53)) * zigX[i]
		switch {
		case x < zigX[i+1]:
			return math.Float64frombits(math.Float64bits(x) | sign)
		case i == 0:
			// Base layer, beyond R: Marsaglia's tail algorithm.
			for {
				ex := -math.Log1p(-r.Float64()) / zigR
				ey := -math.Log1p(-r.Float64())
				if 2*ey >= ex*ex {
					return math.Float64frombits(math.Float64bits(zigR+ex) | sign)
				}
			}
		case zigF[i]+r.Float64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x):
			// Wedge between the core and the curve: accepted against
			// the density.
			return math.Float64frombits(math.Float64bits(x) | sign)
		}
		u = r.Uint64()
	}
}

// NormMeanStd returns a normal variate with the given mean and
// standard deviation. It panics if std < 0.
func (r *Source) NormMeanStd(mean, std float64) float64 {
	if std < 0 {
		panic(fmt.Sprintf("rng: NormMeanStd with negative std %v", std))
	}
	return mean + std*r.Norm()
}

// Poisson returns a Poisson variate with the given mean. For small
// means it uses Knuth's product method; for large means a normal
// approximation with continuity correction, which is accurate to well
// under one count at mean >= 30 and keeps the method O(1).
// It panics if mean < 0 or is not finite.
func (r *Source) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 1):
		panic(fmt.Sprintf("rng: Poisson with invalid mean %v", mean))
	case mean == 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := math.Floor(mean + math.Sqrt(mean)*r.Norm() + 0.5)
		if v < 0 {
			return 0
		}
		return int(v)
	}
}

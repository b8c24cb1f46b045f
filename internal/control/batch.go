package control

import "math"

// DriftBatcher is the optional batch fast path of a Law: DriftBatch
// writes Drift(q[i], lam[i]) into dst[i] for every i in one call. The
// Monte-Carlo particle loops (internal/sde, internal/meanfield) call
// their law once per particle per step — hundreds of millions of
// dynamic dispatches per experiment — so the concrete laws on those
// hot paths implement DriftBatcher to amortize the interface call
// over a whole chunk and let the element loop inline.
//
// A DriftBatch implementation MUST be elementwise identical to Drift:
// callers switch between the two paths based on availability alone
// and rely on bit-equal results (the worker-count determinism
// guarantees of the particle engines depend on it).
type DriftBatcher interface {
	DriftBatch(q, lam, dst []float64)
}

// DriftBatch implements DriftBatcher: the AIMD branch, vectorized
// over a chunk. Panics if the slices disagree in length (caller bug).
// Near the operating point q ≈ q̂ the comparison is a coin flip per
// particle, so a branch would mispredict half the time. The select is
// therefore done on bit patterns: the comparison sets an all-ones or
// all-zero mask (a conditional move), and the mask picks the bits of
// C0 or of −C1·λ. Both arms are computed for every element; the
// result is the bit pattern Drift returns, NaN and −0 included.
func (l AIMD) DriftBatch(q, lam, dst []float64) {
	lam, dst = lam[:len(q)], dst[:len(q)]
	inc, c1, qHat := math.Float64bits(l.C0), l.C1, l.QHat
	for i, qi := range q {
		var m uint64
		if qi <= qHat {
			m = ^uint64(0)
		}
		dec := math.Float64bits(-c1 * lam[i])
		dst[i] = math.Float64frombits(inc&m | dec&^m)
	}
}

// DriftBatch implements DriftBatcher for the linear-decrease law,
// mirroring AIAD.Drift's clamp at λ = 0 exactly.
func (l AIAD) DriftBatch(q, lam, dst []float64) {
	_ = dst[:len(q)]
	_ = lam[:len(q)]
	for i, qi := range q {
		dst[i] = l.Drift(qi, lam[i])
	}
}

// Drifts applies law over the slices, using the batch fast path when
// the law provides one and falling back to per-element Drift calls
// otherwise. dst must have at least len(q) elements.
func Drifts(law Law, q, lam, dst []float64) {
	if b, ok := law.(DriftBatcher); ok {
		b.DriftBatch(q, lam, dst)
		return
	}
	for i := range q {
		dst[i] = law.Drift(q[i], lam[i])
	}
}

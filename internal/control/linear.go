package control

import (
	"fmt"
	"math"
)

// Linear is a proportional-derivative rate law
//
//	g(q, λ) = −Kq·(q − q̂) − Kl·(λ − MuRef)
//
// — the style of second-order feedback the paper's introduction cites
// from Mitra-Seery's asymptotic window analysis, and the natural
// comparison point for AIMD's threshold feedback. Unlike AIMD, whose
// linearization is fixed by (C0, C1, μ), the PD law exposes the
// restoring gain Kq and the damping gain Kl directly: the Section 7
// delay budget τ* can be engineered by raising Kl, which the E23
// experiment demonstrates.
//
// MuRef is the sender's estimate of its fair service rate. With
// MuRef = μ the law is exact and the equilibrium is (q̂, μ); a biased
// estimate shifts the equilibrium queue by +Kl·(MuRef−μ)/Kq — an
// optimistic reference keeps pushing rate and parks extra queue.
type Linear struct {
	Kq    float64 // restoring gain on the queue error (> 0)
	Kl    float64 // damping gain on the rate error (≥ 0)
	QHat  float64 // target queue length
	MuRef float64 // the sender's service-rate reference (> 0)
}

// NewLinear validates and returns a PD law.
func NewLinear(kq, kl, qHat, muRef float64) (Linear, error) {
	switch {
	case !(kq > 0) || math.IsInf(kq, 1) || math.IsNaN(kq):
		return Linear{}, fmt.Errorf("control: Linear restoring gain must be positive, got %v", kq)
	case kl < 0 || math.IsInf(kl, 1) || math.IsNaN(kl):
		return Linear{}, fmt.Errorf("control: Linear damping gain must be ≥ 0, got %v", kl)
	case !(qHat >= 0) || math.IsInf(qHat, 1):
		return Linear{}, fmt.Errorf("control: Linear target queue must be ≥ 0, got %v", qHat)
	case !(muRef > 0) || math.IsInf(muRef, 1):
		return Linear{}, fmt.Errorf("control: Linear rate reference must be positive, got %v", muRef)
	}
	return Linear{Kq: kq, Kl: kl, QHat: qHat, MuRef: muRef}, nil
}

// Drift implements Law.
func (l Linear) Drift(q, lambda float64) float64 {
	return -l.Kq*(q-l.QHat) - l.Kl*(lambda-l.MuRef)
}

// Name implements Law.
func (l Linear) Name() string { return "PD" }

// Target implements Law.
func (l Linear) Target() float64 { return l.QHat }

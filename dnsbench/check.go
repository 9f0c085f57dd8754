package main

import (
	"math"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

// Step-gate tolerances. A correct step measures a relative budget
// residual of about 1e-4 (RK2) or 5e-5 (RK4) and a relative divergence
// of about 1e-18.
const (
	budgetTol = 1e-2
	divTol    = 1e-12
)

// budgetState holds the quantities the step gate differentiates in
// time, as of the previous check: kinetic energy E and dissipation ε,
// and per scalar the variance ⟨θ²⟩, its dissipation χ and the mean-
// gradient production G⟨u_yθ⟩.
type budgetState struct {
	e, eps        float64
	v, chi, prodn []float64
}

// measureBudget evaluates the budget quantities (collective).
func (rc *rankCase) measureBudget() budgetState {
	s := rc.sol
	b := budgetState{e: s.Energy(), eps: s.Dissipation()}
	for f := 3; f < s.Fields(); f++ {
		b.v = append(b.v, s.FieldVariance(f))
		b.chi = append(b.chi, s.FieldDissipation(f))
		b.prodn = append(b.prodn, rc.w.gradient*crossMean(s, 1, f))
	}
	return b
}

// checkStep gates one solver step (collective): every budget quantity
// is finite, the velocity stays divergence-free to round-off, and the
// budgets close over the step (trapezoid rule in time):
//
//	dE/dt     = −ε                  (the Coriolis force does no work)
//	d⟨θ²⟩/dt  = −2χ − 2G⟨u_yθ⟩      (per scalar)
func (rc *rankCase) checkStep() bool {
	prev := rc.bud
	cur := rc.measureBudget()
	rc.bud = cur
	dt := rc.w.dt
	ok := finite(cur.e) && cur.e > 0 && finite(cur.eps)
	ok = ok && residual((cur.e-prev.e)/dt, -(prev.eps+cur.eps)/2, (prev.eps+cur.eps)/2) <= budgetTol
	for i := range cur.v {
		want := -(prev.chi[i] + cur.chi[i]) - (prev.prodn[i] + cur.prodn[i])
		scale := math.Abs(prev.chi[i]+cur.chi[i]) + math.Abs(prev.prodn[i]+cur.prodn[i])
		ok = ok && finite(cur.v[i]) && residual((cur.v[i]-prev.v[i])/dt, want, scale) <= budgetTol
	}
	// Every mode obeys |k·û| ≤ |k|max·|û| ≤ |k|max·√(2E), so this bound
	// is relative to the largest divergence the field could have.
	n := float64(rc.w.n)
	div := rc.sol.DivergenceMax()
	return ok && div <= divTol*math.Sqrt(3)*n/2*math.Sqrt(2*cur.e)
}

// residual is |got−want|/scale, +Inf when any input is not finite.
func residual(got, want, scale float64) float64 {
	r := math.Abs(got-want) / scale
	if !finite(r) {
		return math.Inf(1)
	}
	return r
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// crossMean is ⟨f_a·f_b⟩ over the domain, by Parseval over the
// half-spectrum slab [mz][ny][nxh] (collective).
func crossMean(s *spectral.Solver, a, b int) float64 {
	n := s.N()
	nxh := n/2 + 1
	fa, fb := s.Field(a), s.Field(b)
	var sum float64
	for i := range fa {
		w := 2.0
		if ix := i % nxh; ix == 0 || ix == n/2 {
			w = 1
		}
		sum += w * (real(fa[i])*real(fb[i]) + imag(fa[i])*imag(fb[i]))
	}
	n3 := float64(n) * float64(n) * float64(n)
	v := []float64{sum / (n3 * n3)}
	mpi.AllreduceSum(s.Comm(), v)
	return v[0]
}

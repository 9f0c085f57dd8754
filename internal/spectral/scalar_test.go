package spectral

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// Passive-scalar physics of the rotating-scalar system: field 3 is the
// scalar θ, advanced inside Step with κ = ν/Sc.

func TestScalarPureDiffusionIsExact(t *testing.T) {
	// With zero velocity the scalar obeys ∂θ/∂t = κ∇²θ exactly:
	// a single mode decays as exp(−κk²t) via the integrating factor.
	n := 16
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, WithNu(0.1), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 2.5))
		kappa := s.System().Diffusivity(3)
		if math.Abs(kappa-0.04) > 1e-15 {
			t.Fatalf("κ=%g, want 0.04", kappa)
		}
		s.SetFieldSingleMode(3, 2, 1, -1, complex(0.5, 0.25))
		v0 := s.FieldVariance(3)
		dt := 0.01
		steps := 15
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		k2 := 4.0 + 1.0 + 1.0
		want := v0 * math.Exp(-2*kappa*k2*float64(steps)*dt)
		got := s.FieldVariance(3)
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Errorf("diffusion decay: got %g want %g (rel %g)", got, want, rel)
		}
	})
}

func TestScalarAdvectionConservesVariance(t *testing.T) {
	// With κ=0 (Sc = +Inf), advection by an incompressible field only
	// rearranges θ: the dealiased Galerkin system conserves ⟨θ²⟩ up to
	// time discretization error (O(dt²) per step for Heun).
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, math.Inf(1)))
		s.SetTaylorGreen()
		s.SetFieldBlob(3, 2.5, 1.0, 3)
		v0 := s.FieldVariance(3)
		dt := 1e-3
		for i := 0; i < 10; i++ {
			s.Step(dt)
		}
		v1 := s.FieldVariance(3)
		if rel := math.Abs(v1-v0) / v0; rel > 1e-5 {
			t.Errorf("variance drift %g over 10 inviscid steps", rel)
		}
	})
}

func TestScalarVarianceBalance(t *testing.T) {
	// Unforced: d⟨θ²⟩/dt = −2χ with χ = κ⟨|∇θ|²⟩ as FieldDissipation
	// returns it. Check numerically over one short step.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.03), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 0.6))
		s.SetRandomIsotropic(3, 0.4, 5)
		s.SetFieldBlob(3, 3, 0.8, 9)
		v0 := s.FieldVariance(3)
		chi := s.FieldDissipation(3)
		dt := 5e-4
		s.Step(dt)
		v1 := s.FieldVariance(3)
		dVdt := (v1 - v0) / dt
		if rel := math.Abs(dVdt+2*chi) / (2 * chi); rel > 0.05 {
			t.Errorf("variance balance: d⟨θ²⟩/dt=%g want %g (rel %g)", dVdt, -2*chi, rel)
		}
	})
}

func TestScalarMeanGradientProducesVariance(t *testing.T) {
	// With an imposed mean gradient and zero initial fluctuations, the
	// production term −G·u_y must generate scalar variance.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23),
			WithScalars(1, 1), WithScalarGradient(1.0))
		s.SetRandomIsotropic(3, 0.5, 7)
		for i := 0; i < 5; i++ {
			s.Step(0.005)
		}
		if v := s.FieldVariance(3); v <= 0 {
			t.Errorf("no variance produced: %g", v)
		}
	})
}

func TestScalarSpectrumSumsToHalfVariance(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScalars(1, 2))
		s.SetFieldBlob(3, 3, 0.6, 13)
		spec := s.FieldSpectrum(3)
		var sum float64
		for _, e := range spec {
			sum += e
		}
		v := s.FieldVariance(3)
		if math.Abs(sum-v/2) > 1e-10*v {
			t.Errorf("ΣE_θ=%g vs ⟨θ²⟩/2=%g", sum, v/2)
		}
	})
}

func TestScalarRankCountIndependence(t *testing.T) {
	results := map[int]float64{}
	var mu sync.Mutex
	for _, p := range []int{1, 2, 4} {
		p := p
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 0.02/0.03))
			s.SetRandomIsotropic(3, 0.5, 21)
			s.SetFieldBlob(3, 2.5, 0.7, 22)
			for i := 0; i < 3; i++ {
				s.Step(0.004)
			}
			v := s.FieldVariance(3)
			if c.Rank() == 0 {
				mu.Lock()
				results[p] = v
				mu.Unlock()
			}
		})
	}
	for _, p := range []int{2, 4} {
		if math.Abs(results[p]-results[1]) > 1e-12*results[1] {
			t.Errorf("P=%d variance %.15g differs from P=1 %.15g", p, results[p], results[1])
		}
	}
}

func TestScalarBlobDeterministic(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.01), WithScalars(2))
		s.SetFieldBlob(3, 2, 0.5, 99)
		s.SetFieldBlob(4, 2, 0.5, 99)
		a, b := s.Field(3), s.Field(4)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic IC at %d", i)
			}
		}
	})
}

// A negative or NaN Schmidt number has no physical diffusivity and
// must be refused at construction; Sc = 0 keeps the documented default
// κ = ν and Sc = +Inf gives κ = 0.
func TestScalarRejectsNegativeDiffusivity(t *testing.T) {
	for _, sc := range []float64{-1, math.NaN()} {
		err := mpi.TryRun(1, func(c *mpi.Comm) {
			New(c, 8, WithNu(0.01), WithScalars(1, sc))
		})
		if err == nil || !strings.Contains(err.Error(), "Schmidt") {
			t.Errorf("Sc=%g: error %v, want a panic naming the Schmidt number", sc, err)
		}
	}
	for _, tc := range []struct{ sc, kappa float64 }{{0, 0.01}, {math.Inf(1), 0}} {
		mpi.Run(1, func(c *mpi.Comm) {
			s := New(c, 8, WithNu(0.01), WithScalars(1, tc.sc))
			if got := s.System().Diffusivity(3); got != tc.kappa {
				t.Errorf("Sc=%g: κ=%g, want %g", tc.sc, got, tc.kappa)
			}
		})
	}
}

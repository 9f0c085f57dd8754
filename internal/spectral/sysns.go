package spectral

// NavierStokes is the default equation set: decaying incompressible
// Navier–Stokes, the configuration every pre-registry solver ran. Its
// Nonlinear is exactly the classic velocityProducts → projection
// sequence, so results are bitwise-identical to the hardcoded stepper
// it replaced.
type NavierStokes struct {
	nu float64
}

func init() {
	RegisterSystem("ns", newNavierStokes)
}

func newNavierStokes(spec SystemSpec) System {
	rejectSpec("ns", spec, false, false, false)
	return &NavierStokes{nu: spec.Nu}
}

// Name implements System.
func (y *NavierStokes) Name() string { return "ns" }

// Fields implements System: three velocity components.
func (y *NavierStokes) Fields() int { return 3 }

// Setup implements System (no extra state).
func (y *NavierStokes) Setup(*Solver) {}

// Diffusivity implements System: the kinematic viscosity for every
// component.
func (y *NavierStokes) Diffusivity(int) float64 { return y.nu }

// Nonlinear implements System: the dealiased, projected
// divergence-form term −P(k)·(ik_j·FFT{u_iu_j}).
//
//psdns:hotpath
func (y *NavierStokes) Nonlinear(s *Solver, state, rhs [][]complex128) {
	s.velocityProducts(state, rhs)
	s.projectAndDealias(rhs)
}

// PostStep implements System (decaying turbulence: nothing to do).
//
//psdns:hotpath
func (y *NavierStokes) PostStep(*Solver, float64) {}

// Diagnostics implements System.
func (y *NavierStokes) Diagnostics(s *Solver) []Diagnostic {
	return []Diagnostic{
		{Name: "energy", Value: s.Energy()},
		{Name: "dissipation", Value: s.Dissipation()},
	}
}

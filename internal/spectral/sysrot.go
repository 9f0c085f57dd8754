package spectral

import (
	"fmt"
	"math"
)

// RotatingScalarNS is incompressible Navier–Stokes in a frame rotating
// about ẑ at rate Ω, carrying any number of passive scalars with
// per-scalar Schmidt numbers and optional imposed mean gradients:
//
//	∂u/∂t + u·∇u = −∇p − 2Ω·ẑ×u + ν∇²u
//	∂θ_i/∂t + u·∇θ_i = κ_i∇²θ_i − G_i·u_y,   κ_i = ν/Sc_i
//
// The Coriolis term does no work (it enters before the solenoidal
// projection and is perpendicular to u), so inviscid energy is
// conserved to scheme accuracy; its signature is the growth of
// component anisotropy, reported by the anisotropy.bzz diagnostic.
//
// Scalars ride the velocity transforms nearly free: the velocity's
// physical-space fields are computed once per stage by
// velocityProducts and reused for every scalar's advective flux, so
// each scalar adds only 1 inverse + 3 forward transforms — the
// companion-workload accounting of the paper's §3.3.
//
// With WithForcing the system also carries the StochasticForcing
// controller of "forced-ns", applied to the velocity after every step:
// forced stationary mixing. Without it the controller is nil and the
// step runs no forcing code.
type RotatingScalarNS struct {
	nu      float64
	omega   float64
	scalars []scalarField
	forcing *StochasticForcing // nil when unforced

	physTh []float64 // one scalar in physical space (scratch)
}

// scalarField is the resolved per-scalar configuration.
type scalarField struct {
	kappa    float64
	meanGrad float64
}

func init() {
	RegisterSystem("rotating-scalar", newRotatingScalarNS)
}

func newRotatingScalarNS(spec SystemSpec) System {
	y := &RotatingScalarNS{nu: spec.Nu, omega: spec.Omega}
	if spec.Forcing != (ForcingSpec{}) {
		y.forcing = NewStochasticForcing(spec.Forcing)
	}
	for i, sp := range spec.Scalars {
		// Sc = 0 means the documented default Sc = 1 (κ = ν); +Inf
		// gives a non-diffusive scalar (κ = 0).
		kappa := spec.Nu
		switch {
		case sp.Schmidt < 0 || math.IsNaN(sp.Schmidt):
			panic(fmt.Sprintf("spectral: scalar %d: invalid Schmidt number %g (need Sc ≥ 0)", i, sp.Schmidt))
		case sp.Schmidt > 0:
			kappa = spec.Nu / sp.Schmidt
		}
		y.scalars = append(y.scalars, scalarField{kappa: kappa, meanGrad: sp.MeanGrad})
	}
	return y
}

// Name implements System.
func (y *RotatingScalarNS) Name() string { return "rotating-scalar" }

// Fields implements System: velocity plus one field per scalar.
func (y *RotatingScalarNS) Fields() int { return 3 + len(y.scalars) }

// Setup implements System: binds the scalar's physical-space scratch
// and registers the forcing's persistent reduction (collective).
func (y *RotatingScalarNS) Setup(s *Solver) {
	if len(y.scalars) > 0 {
		y.physTh = make([]float64, s.tr.PhysicalLen())
	}
	if y.forcing != nil {
		y.forcing.setup(s)
	}
}

// Diffusivity implements System: ν for the velocity, κ_i = ν/Sc_i for
// scalar i.
func (y *RotatingScalarNS) Diffusivity(c int) float64 {
	if c < 3 {
		return y.nu
	}
	return y.scalars[c-3].kappa
}

// Nonlinear implements System: velocity products, Coriolis (before
// projection), projection, then each scalar's advection over the
// physical velocity left behind by velocityProducts.
//
//psdns:hotpath
func (y *RotatingScalarNS) Nonlinear(s *Solver, state, rhs [][]complex128) {
	s.velocityProducts(state, rhs)
	if y.omega != 0 {
		s.addCoriolis(state, rhs, y.omega)
	}
	s.projectAndDealias(rhs)
	for i := range y.scalars {
		y.scalarAdvection(s, state, rhs, 3+i)
	}
}

// scalarAdvection evaluates −ik·FFT{u·θ} − G·û_y (dealiased) for field
// c into rhs[c], reusing s.physU from the preceding velocityProducts
// call (including its phase shift, so scalar products are dealiased on
// the same shifted grid as the velocity's).
//
//psdns:hotpath
func (y *RotatingScalarNS) scalarAdvection(s *Solver, state, rhs [][]complex128, c int) {
	shift := s.cfg.Dealias == Dealias23Shift
	copy(s.work, state[c])
	if shift {
		s.applyShift(s.work, +1)
	}
	s.tr.FourierToPhysical(y.physTh, s.work)

	zero(rhs[c])
	for comp := 0; comp < 3; comp++ {
		u := s.physU[comp]
		for m := range s.prod {
			s.prod[m] = u[m] * y.physTh[m]
		}
		s.tr.PhysicalToFourier(s.work, s.prod)
		if shift {
			s.applyShift(s.work, -1)
		}
		s.accumulateGradientFlux(rhs[c], comp)
	}

	// Mean-gradient production −G·û_y and dealiasing.
	g := y.scalars[c-3].meanGrad
	gc := complex(g, 0)
	r, uy := rhs[c], state[1]
	for i := range r {
		if !s.mask[i] {
			r[i] = 0
			continue
		}
		if g != 0 {
			r[i] -= gc * uy[i]
		}
	}
}

// PostStep implements System: one forcing application when forced.
//
//psdns:hotpath
func (y *RotatingScalarNS) PostStep(s *Solver, dt float64) {
	if y.forcing != nil {
		y.forcing.apply(s, dt)
	}
}

// Forcing exposes the forcing controller, nil when the system is
// unforced.
func (y *RotatingScalarNS) Forcing() *StochasticForcing { return y.forcing }

// Close frees the forcing controller's persistent reduction plan
// (collective). Invoked by Solver.Close through the optional-Close
// system contract.
func (y *RotatingScalarNS) Close() {
	if y.forcing != nil {
		y.forcing.Close()
	}
}

// Diagnostics implements System: the energy budget, the rotation
// anisotropy measure b_zz = E_zz/E − 1/3 (zero for isotropy, negative
// as rotation drains the axial component), each scalar's variance and,
// when forced, the forcing's budget terms.
func (y *RotatingScalarNS) Diagnostics(s *Solver) []Diagnostic {
	e := s.Energy()
	d := []Diagnostic{
		{Name: "energy", Value: e},
		{Name: "dissipation", Value: s.Dissipation()},
		{Name: "rotation.rate", Value: y.omega},
	}
	if e > 0 {
		d = append(d, Diagnostic{Name: "anisotropy.bzz", Value: s.ComponentEnergy(2)/e - 1.0/3.0})
	}
	for i := range y.scalars {
		d = append(d, Diagnostic{Name: "scalar.variance", Value: s.FieldVariance(3 + i)})
	}
	if y.forcing != nil {
		d = append(d,
			Diagnostic{Name: "forcing.injection", Value: y.forcing.Eps},
			Diagnostic{Name: "forcing.band_energy", Value: y.forcing.BandEnergy(s)})
	}
	return d
}

// accumulateGradientFlux adds −i·k_comp·ŝ to dst, where ŝ is the
// spectral flux component currently in s.work.
//
//psdns:hotpath
func (s *Solver) accumulateGradientFlux(dst []complex128, comp int) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				k := [3]float64{s.kxs[ix], ky, kz}[comp]
				v := s.work[idx]
				// −i·k·v = complex(k·imag, −k·real).
				dst[idx] += complex(k*imag(v), -k*real(v))
				idx++
			}
		}
	}
}

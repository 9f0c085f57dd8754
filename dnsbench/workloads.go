package main

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

// engine is the distributed real transform pair a workload drives;
// pfft.SlabReal, pfft.PencilReal and core.AsyncSlabReal all satisfy it.
type engine interface {
	FourierToPhysical(phys []float64, four []complex128)
	PhysicalToFourier(four []complex128, phys []float64)
	FourierLen() int
	PhysicalLen() int
	Close()
}

// box is the part of the global N³ physical grid one rank holds, laid
// out [my][mz][n] with global offsets (yLo, zLo). Seeded fields are a
// function of the global index only, so any decomposition of the same
// seed holds the same global field.
type box struct{ yLo, my, zLo, mz int }

// Every workload runs one process of ranks goroutine ranks × workers
// workers per rank, every transpose-exchange pinned to strategy so the
// start-up autotuner cannot make the numbers bimodal.
const (
	ranks    = 2
	workers  = 1
	strategy = exchange.ChunkedFused
)

// workload is one set of inputs, run in a closed loop.
type workload struct {
	name string
	n    int
	// layer names the engine's package for the per-layer metrics:
	// "pfft" or "core".
	layer string
	// newEngine builds the engine on one rank (collective) and
	// reports the rank's physical box.
	newEngine func(c *mpi.Comm, n int) (engine, box)
	// solver, when non-nil, makes the operation one solver step of
	// length dt; nil makes it one forward+inverse pair.
	solver []spectral.Option
	dt     float64
	// gradient is the scalars' imposed mean gradient G (the scalar
	// budget's production term −2G⟨u_yθ⟩).
	gradient float64
	// shapes lists what one rank's engine runs, for the layer probes.
	shapes func(c *mpi.Comm, n int) probeShapes
}

var workloads = map[string]workload{
	// The production path: the synchronous slab engine under decaying
	// isotropic turbulence. The power-of-two local FFT dominates the
	// step, so FFT-kernel and solver-arithmetic changes show here.
	"decay_n64_slab": {
		name: "decay_n64_slab", n: 64, layer: "pfft",
		newEngine: newSlab,
		solver: []spectral.Option{
			spectral.WithNu(0.01),
			spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23),
		},
		dt:     0.004,
		shapes: slabShapes,
	},
	// The paper's batched asynchronous pipeline on a rotating flow
	// carrying two scalars: the only workload through core/cuda
	// streams, per-pencil exchanges and the mixed-radix FFT (48 = 2⁴·3).
	"async_scalar_n48_rk4": {
		name: "async_scalar_n48_rk4", n: 48, layer: "core",
		newEngine: newAsync,
		solver: []spectral.Option{
			spectral.WithNu(0.015),
			spectral.WithScheme(spectral.RK4),
			spectral.WithDealias(spectral.Dealias23),
			spectral.WithRotation(2),
			spectral.WithScalars(2, 1.0, 0.7),
			spectral.WithScalarGradient(1.0),
		},
		dt:       0.005,
		gradient: 1.0,
		shapes:   asyncShapes,
	},
	// The transform library alone on the 2D pencil engine over a 1×2
	// grid, at 8× the working set; no solver, so a solver-only change
	// must leave it flat.
	"roundtrip_n128_pencil1x2": {
		name: "roundtrip_n128_pencil1x2", n: 128, layer: "pfft",
		newEngine: newPencil1xP,
		shapes:    pencilShapes,
	},
}

const asyncPencils = 4 // NP of the async workload

func newSlab(c *mpi.Comm, n int) (engine, box) {
	f := pfft.NewSlabRealStrategy(c, n, workers, strategy)
	s := f.Slab()
	return f, box{yLo: s.YLo(), my: s.MY(), zLo: 0, mz: n}
}

func newAsync(c *mpi.Comm, n int) (engine, box) {
	a := core.NewAsyncSlabReal(c, n, core.Options{
		NP:          asyncPencils,
		Granularity: core.PerPencil,
		NGPU:        1,
		Workers:     workers,
		Exchange:    strategy,
	})
	s := a.Slab()
	return a, box{yLo: s.YLo(), my: s.MY(), zLo: 0, mz: n}
}

// newPencil1xP builds the pencil engine over a 1×P process grid: the
// column communicator (y group) has size 1, the row communicator (z
// group) spans every rank.
func newPencil1xP(c *mpi.Comm, n int) (engine, box) {
	row, col := c.CartGrid(1, c.Size())
	f := pfft.NewPencilReal(col, row, n, workers, exchange.Both(strategy))
	l := f.Layout()
	return f, box{yLo: l.YRank * l.My, my: l.My, zLo: l.ZRank * l.Mz, mz: l.Mz}
}

// seededValue is field f of the seeded input at global grid point
// (ix, iy, iz): a splitmix64 hash mapped to [−1, 1).
func seededValue(seed int64, f, n, ix, iy, iz int) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(f)*0xd1b54a32d192ed03 + uint64((iz*n+iy)*n+ix)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11)/(1<<52) - 1
}

// fillSeeded writes field f of the seeded input into one rank's box.
func fillSeeded(x []float64, seed int64, f, n int, b box) {
	i := 0
	for iy := 0; iy < b.my; iy++ {
		for iz := 0; iz < b.mz; iz++ {
			for ix := 0; ix < n; ix++ {
				x[i] = seededValue(seed, f, n, ix, b.yLo+iy, b.zLo+iz)
				i++
			}
		}
	}
}

// rankCase is one rank's workload instance after set-up.
type rankCase struct {
	w   workload
	c   *mpi.Comm
	eng engine
	sol *spectral.Solver // nil on the transform-only workload
	rec *recorder

	// Round-trip state: one seeded physical field per field the
	// workload carries (the solver's fields, or one), their
	// round-tripped copies, and the global max|x|.
	xs, ys [][]float64
	four   []complex128
	xmax   float64

	bud budgetState
}

// build sets up one rank: engine plans, solver and initial condition
// (collective). rec records set-up spans; a nil rec records nothing.
func (w workload) build(c *mpi.Comm, seed int64, rec *recorder, traced bool) *rankCase {
	rc := &rankCase{w: w, c: c, rec: rec}
	id := rec.begin(w.layer + ".plan")
	eng, bx := w.newEngine(c, w.n)
	rec.end(id)
	rc.eng = eng
	nf := 1
	if w.solver != nil {
		var tr spectral.Transform = eng.(spectral.Transform)
		if traced {
			tr = &tracedTransform{inner: tr, rec: rec, fwd: w.layer + ".fwd", inv: w.layer + ".inv"}
		}
		id = rec.begin("spectral.setup")
		rc.sol = spectral.New(c, w.n, append(slices.Clip(w.solver), spectral.WithTransform(tr))...)
		rec.end(id)
		id = rec.begin("spectral.ic")
		setInitialCondition(rc.sol, seed)
		rec.end(id)
		nf = rc.sol.Fields()
	}
	rc.four = make([]complex128, eng.FourierLen())
	for f := 0; f < nf; f++ {
		x := make([]float64, eng.PhysicalLen())
		fillSeeded(x, seed, f, w.n, bx)
		rc.xs = append(rc.xs, x)
		rc.ys = append(rc.ys, make([]float64, eng.PhysicalLen()))
	}
	rc.xmax = globalMaxAbs(c, rc.xs)
	if rc.sol != nil {
		rc.bud = rc.measureBudget()
	}
	return rc
}

// setInitialCondition is the seeded random isotropic velocity (k0=3,
// E0=0.5) plus, for scalar-carrying systems, one seeded blob per scalar.
func setInitialCondition(sol *spectral.Solver, seed int64) {
	sol.SetRandomIsotropic(3, 0.5, seed)
	for f := 3; f < sol.Fields(); f++ {
		sol.SetFieldBlob(f, 2.5, 0.5, seed*31+int64(f))
	}
}

func (rc *rankCase) close() {
	if rc.sol != nil {
		rc.sol.Close()
	}
	rc.eng.Close()
}

// op is one closed-loop operation: a solver step, or a round trip on
// the transform-only workload.
func (rc *rankCase) op() {
	if rc.sol == nil {
		rc.roundTrip()
		return
	}
	id := rc.rec.begin("spectral.step")
	rc.sol.Step(rc.w.dt)
	rc.rec.end(id)
}

// checkOp is the correctness gate of op (collective).
func (rc *rankCase) checkOp() bool {
	if rc.sol == nil {
		return rc.checkRoundTrip()
	}
	return rc.checkStep()
}

// roundTrip runs one forward+inverse transform pair per field of the
// round-trip state on the workload's engine. The engine reads xs and
// writes ys, so every round trip starts from the same input.
func (rc *rankCase) roundTrip() {
	for f, x := range rc.xs {
		id := rc.rec.begin("roundtrip.pair")
		fw := rc.rec.begin(rc.w.layer + ".fwd")
		rc.eng.PhysicalToFourier(rc.four, x)
		rc.rec.end(fw)
		iv := rc.rec.begin(rc.w.layer + ".inv")
		rc.eng.FourierToPhysical(rc.ys[f], rc.four)
		rc.rec.end(iv)
		rc.rec.end(id)
	}
}

// roundTripTol is the round-trip gate, max|y−x| ≤ tol·max|x| (a
// correct pair measures about 2e-15).
const roundTripTol = 1e-12

// checkRoundTrip gates a round trip: every field reproduces its input
// (collective).
func (rc *rankCase) checkRoundTrip() bool {
	var e float64
	for f, y := range rc.ys {
		for i, v := range y {
			d := math.Abs(v - rc.xs[f][i])
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			e = math.Max(e, d)
		}
	}
	v := []float64{e}
	mpi.AllreduceMax(rc.c, v)
	return v[0] <= roundTripTol*rc.xmax
}

func globalMaxAbs(c *mpi.Comm, xs [][]float64) float64 {
	var m float64
	for _, x := range xs {
		for _, v := range x {
			m = math.Max(m, math.Abs(v))
		}
	}
	v := []float64{m}
	mpi.AllreduceMax(c, v)
	return v[0]
}

// sumSquares is Σy² over the global field (collective).
func sumSquares(c *mpi.Comm, y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v * v
	}
	v := []float64{s}
	mpi.AllreduceSum(c, v)
	return v[0]
}

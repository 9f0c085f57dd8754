package pfft

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/transpose"
	"repro/internal/tuning"
)

// phaseMetrics are the per-rank phase histograms of the synchronous
// transform, matching the span classes of the paper's Fig 10 timeline:
// local FFT compute, pack (reordering into send blocks), the
// all-to-all itself, and unpack. The four sections tile each transform
// wall-to-wall, so their sums reconstruct the transform's wall time.
type phaseMetrics struct {
	fft    *metrics.Histogram
	pack   *metrics.Histogram
	a2a    *metrics.Histogram
	unpack *metrics.Histogram
}

func newPhaseMetrics(c *mpi.Comm) *phaseMetrics {
	return newPhaseMetricsAt(c.Metrics(), c.Rank())
}

// newPhaseMetricsAt labels the histograms with an explicit rank:
// sub-communicators share the world's registry, so engines spanning a
// process grid pass a grid-global rank instead of a sub-communicator
// rank that would collide across groups.
func newPhaseMetricsAt(r *metrics.Registry, rank int) *phaseMetrics {
	return &phaseMetrics{
		fft:    r.HistogramRank("phase.fft", rank),
		pack:   r.HistogramRank("phase.pack", rank),
		a2a:    r.HistogramRank("phase.a2a", rank),
		unpack: r.HistogramRank("phase.unpack", rank),
	}
}

// SlabReal is the DNS transform pair: real physical fields, conjugate-
// symmetric half-spectra (nxh = n/2+1 in x) in Fourier space.
//
// It is the unified single- and multi-worker implementation of the
// paper's hybrid MPI+OpenMP layer: each rank owns a persistent
// par.Team that splits the y/z/x FFT batch loops and the transpose
// pack/unpack kernels across workers, with one set of FFT plans per
// worker (plans carry scratch and are not concurrency-safe). Results
// are bitwise identical for any team size, because the plane-level
// work units are independent and executed by identical plans.
//
// The steady-state transform path performs zero heap allocations:
// pack/recv/mid buffers come from the process buffer arena at plan
// time, the all-to-all runs through a persistent mpi.A2APlan (barrier
// + direct copies, no per-call messages), the worker bodies are
// precomputed closures dispatched through the reusable team, and phase
// timings use allocation-free ObserveSince instrumentation.
type SlabReal struct {
	comm   *mpi.Comm
	s      grid.Slab
	n      int
	nxh    int
	team   *par.Team
	layout transpose.SlabLayout
	by     []*fft.Batch     // per worker: along y on [mz][ny][nxh]
	bz     []*fft.Batch     // per worker: along z on [my][nz][nxh]
	bx     []*fft.RealBatch // per worker: half-spectrum ↔ real line
	pack   []complex128
	recv   []complex128
	mid    []complex128 // [my][nz][nxh] intermediate
	a2a    *mpi.A2APlan[complex128]
	exch   *mpi.ExchangePlan[complex128]
	// The pinned concrete strategies (never Auto), one per transpose
	// direction: stratYZ moves the Fourier slab into the physical
	// layout (FourierToPhysical), stratZY the reverse. The two
	// directions stream mirrored access patterns, so the autotuner
	// measures and pins them independently.
	stratYZ exchange.Strategy
	stratZY exchange.Strategy
	met     *phaseMetrics
	closed  bool

	// Asynchrony-tolerant state (strat == exchange.AT only; exch stays
	// nil): each transpose direction gets its own bounded plan so the
	// two heterogeneous exchanges never share an epoch stream — a stale
	// y→z slab is always an older y→z slab, never a z→y publication
	// read in the wrong layout. atSite further labels each call with
	// the caller's quantity index (SetATSite) so stale slabs only
	// substitute for the same quantity. atStale is the per-call bound
	// handed to DoBounded; atDeadline the plan deadline.
	exchYZ     *mpi.ExchangePlan[complex128]
	exchZY     *mpi.ExchangePlan[complex128]
	atSite     uint32
	atStale    int
	atDeadline time.Duration

	// Staging fields for the precomputed worker bodies: the transform
	// entry points publish the current operand slices here so the team
	// bodies (built once in the constructor) reference them without a
	// per-call closure allocation.
	curFour []complex128
	curPhys []float64
	// Fused-exchange staging: the peer slab table published by
	// ExchangePlan.Do, and the current peer of a chunked round.
	curSrcs    [][]complex128
	curPeer    int
	curPeerSrc []complex128

	invYBody, fwdYBody    func(w, lo, hi int) // over iz planes
	invZXBody, fwdXZBody  func(w, lo, hi int) // over iy planes
	packYZBody, unpZYBody func(w, lo, hi int) // over iz
	packZYBody, unpYZBody func(w, lo, hi int) // over iy

	// Fused gather bodies (over iy for y→z, over iz for z→y) and the
	// per-peer chunked variants; the fused*Fn closures are the gather
	// callbacks handed to ExchangePlan.Do, prebuilt so steady-state
	// dispatch performs zero allocations.
	gatherYZBody, gatherZYBody         func(w, lo, hi int)
	gatherYZPeerBody, gatherZYPeerBody func(w, lo, hi int)
	fusedYZFn, fusedZYFn               func(srcs [][]complex128)
	chunkedYZFn, chunkedZYFn           func(srcs [][]complex128)

	// Single-precision wire pipeline (single == true): the FFT stages
	// still compute in float64, but the transpose-exchange narrows each
	// slab to complex64 before it moves and widens after — half the
	// bytes through the pack/exchange/unpack (or fused-gather) path,
	// ~1e-7 relative rounding per transform, exactly the paper's
	// production wire format. Only the complex64 halves of the staging
	// buffers and plans exist in this mode; pack/recv/a2a/exch above
	// stay nil.
	single       bool
	four32       []complex64 // narrowed Fourier-side slab [mz][ny][nxh]
	mid32        []complex64 // narrowed physical-side slab [my][nz][nxh]
	pack32       []complex64
	recv32       []complex64
	a2a32        *mpi.A2APlan[complex64]
	exch32       *mpi.ExchangePlan[complex64]
	curSrcs32    [][]complex64
	curPeerSrc32 []complex64

	narrowFourBody, widenFourBody          func(w, lo, hi int) // over iz planes
	narrowMidBody, widenMidBody            func(w, lo, hi int) // over iy planes
	pack32YZBody, unp32ZYBody              func(w, lo, hi int) // over iz
	pack32ZYBody, unp32YZBody              func(w, lo, hi int) // over iy
	gather32YZBody, gather32ZYBody         func(w, lo, hi int)
	gather32YZPeerBody, gather32ZYPeerBody func(w, lo, hi int)
	fused32YZFn, fused32ZYFn               func(srcs [][]complex64)
	chunked32YZFn, chunked32ZYFn           func(srcs [][]complex64)
}

// NewSlabReal builds the DNS transform for an N³ real field (even N)
// with a single worker per rank.
func NewSlabReal(comm *mpi.Comm, n int) *SlabReal {
	return NewSlabRealWorkers(comm, n, 1)
}

// NewSlabRealWorkers builds the DNS transform with a team of workers
// per rank (workers ≥ 1), autotuning the transpose-exchange strategy
// at plan time. Collective: every rank must construct the transform at
// the same point in its collective order (the persistent all-to-all
// and exchange plans register state across ranks, and the autotuner
// runs collective trials).
func NewSlabRealWorkers(comm *mpi.Comm, n, workers int) *SlabReal {
	return NewSlabRealStrategy(comm, n, workers, exchange.Auto)
}

// NewSlabRealStrategy builds the DNS transform with an explicit
// transpose-exchange strategy. exchange.Auto microbenchmarks every
// concrete strategy at the actual (N, P, workers) and pins the
// collectively-agreed winner; a concrete strategy skips the trials and
// pins that strategy on every rank. Collective.
func NewSlabRealStrategy(comm *mpi.Comm, n, workers int, strat exchange.Strategy) *SlabReal {
	if strat == exchange.AT {
		panic("pfft: exchange.AT needs a staleness bound; use NewSlabRealAT")
	}
	return newSlabReal(comm, n, workers, strat, 0, 0, false)
}

// NewSlabRealSingle builds the DNS transform on the single-precision
// wire pipeline: FFT stages compute in float64, but every transpose-
// exchange narrows the moving slab to complex64 first — half the bytes
// through pack/exchange/unpack for ~1e-7 relative rounding per
// transform, the paper's production wire format. The exchange strategy
// is autotuned over the complex64 path at plan time. Collective.
func NewSlabRealSingle(comm *mpi.Comm, n, workers int) *SlabReal {
	return newSlabReal(comm, n, workers, exchange.Auto, 0, 0, true)
}

// NewSlabRealTuned builds the DNS transform by searching cfg.Space —
// the whole-step tune space over (y→z strategy × z→y strategy ×
// workers × wire precision; the slab engine has no pencils, so the
// NP, PerSlab and decomposition dimensions collapse) — with the
// barrier-fenced best-of-k max-over-ranks trial protocol, and pins
// the collectively-agreed winner. The two transpose directions are
// timed independently and each candidate pair is scored as the sum of
// its per-direction times, so the cross-product costs only
// 2×|strategies| trial runs per engine, not |strategies|². When
// cfg.Cache holds a decision for this (N, P, GOMAXPROCS, machine) key
// the trials are skipped entirely and the cached point is constructed
// directly — a warm production restart performs zero trial exchanges
// (the tune.trials counter stays flat). The cached point pins every
// searched dimension, including the worker-team size; workers is only
// the default substituted into an empty Workers dimension. Collective.
func NewSlabRealTuned(comm *mpi.Comm, n, workers int, cfg tuning.Config) *SlabReal {
	key := tuning.Key{
		Engine:   "slab",
		N:        n,
		P:        comm.Size(),
		Maxprocs: runtime.GOMAXPROCS(0),
		Machine:  hw.Fingerprint(),
	}
	if pt, ok := cfg.Lookup(comm, key); ok {
		eng := newSlabReal(comm, n, pt.Workers, pt.Strategy, 0, 0, pt.Single)
		eng.stratZY = pt.StrategyZY
		eng.setStrategyGauges()
		return eng
	}
	pts := slabPoints(cfg.Space, workers)
	// One trial engine per distinct (workers, single) pair, built
	// lazily in candidate order so every rank constructs (a collective)
	// in the same sequence; within an engine the strategies reuse the
	// prebuilt bodies exactly as the strategy autotuner does. Each
	// (engine, direction, strategy) is measured once and memoized; a
	// candidate pair's cost is the sum of its two direction times. The
	// memo misses occur in identical candidate order on every rank, so
	// the collective trial sequence stays symmetric.
	type group struct {
		workers int
		single  bool
	}
	type dirKey struct {
		g  group
		st exchange.Strategy
		zy bool
	}
	engines := map[group]*SlabReal{}
	times := map[dirKey]float64{}
	trial := pool.GetComplex(grid.NewSlab(n, comm.Size(), comm.Rank()).MZ() * n * (n/2 + 1))
	mine := make([]float64, len(pts))
	for i, pt := range pts {
		g := group{pt.Workers, pt.Single}
		eng := engines[g]
		if eng == nil {
			eng = newSlabReal(comm, n, g.workers, exchange.Staged, 0, 0, g.single)
			engines[g] = eng
		}
		kyz := dirKey{g, pt.Strategy, false}
		if _, ok := times[kyz]; !ok {
			st := pt.Strategy
			times[kyz] = tuning.TrialBest(comm, tuning.Trials, func() { eng.runTrial(st, trial) })
		}
		kzy := dirKey{g, pt.StrategyZY, true}
		if _, ok := times[kzy]; !ok {
			st := pt.StrategyZY
			times[kzy] = tuning.TrialBest(comm, tuning.Trials, func() { eng.runTrialZY(st, trial) })
		}
		mine[i] = times[kyz] + times[kzy]
	}
	pool.PutComplex(trial)
	win, cost := tuning.ResolveTimes(comm, mine)
	pt := pts[win]
	cfg.Store(comm, key, pt, cost)
	keep := engines[group{pt.Workers, pt.Single}]
	for _, e := range engines {
		if e != keep {
			e.Close()
		}
	}
	keep.stratYZ, keep.stratZY = pt.Strategy, pt.StrategyZY
	keep.setStrategyGauges()
	return keep
}

// slabPoints enumerates cfg.Space for the slab engine: the NP,
// PerSlab and decomposition dimensions do not exist here, so points
// differing only in them are canonicalized (NP 0, PerSlab false,
// Pr/Pc 0) and deduplicated, preserving the space's tie-break order.
func slabPoints(space tuning.Space, workers int) []tuning.Point {
	type slabKey struct {
		st      exchange.Strategy
		stZY    exchange.Strategy
		workers int
		single  bool
	}
	seen := map[slabKey]bool{}
	var out []tuning.Point
	for _, pt := range space.Points(0, workers) {
		k := slabKey{pt.Strategy, pt.StrategyZY, pt.Workers, pt.Single}
		if seen[k] {
			continue
		}
		seen[k] = true
		pt.NP, pt.PerSlab, pt.Pr, pt.Pc = 0, false, 0, 0
		out = append(out, pt)
	}
	return out
}

// NewSlabRealAT builds the DNS transform on the asynchrony-tolerant
// exchange: each transpose direction runs through its own bounded plan
// via DoBounded with the given staleness bound (in that plan's
// exchange epochs) and per-plan deadline, so a straggling rank delays
// its peers by at most the deadline once they are within maxStale
// epochs — and a stale slab is always the same direction's (and, with
// SetATSite, the same quantity's) publication from an earlier cycle.
// The observed staleness is drained with TakeStaleness by
// scheme-correcting callers. Collective.
func NewSlabRealAT(comm *mpi.Comm, n, workers, maxStale int, deadline time.Duration) *SlabReal {
	if maxStale < 0 {
		panic(fmt.Sprintf("pfft: negative staleness bound %d", maxStale))
	}
	return newSlabReal(comm, n, workers, exchange.AT, maxStale, deadline, false)
}

func newSlabReal(comm *mpi.Comm, n, workers int, strat exchange.Strategy, maxStale int, deadline time.Duration, single bool) *SlabReal {
	if n%2 != 0 {
		panic(fmt.Sprintf("pfft: SlabReal requires even N, got %d", n))
	}
	if single && strat == exchange.AT {
		panic("pfft: the single-precision pipeline does not support the asynchrony-tolerant exchange")
	}
	s := grid.NewSlab(n, comm.Size(), comm.Rank())
	nxh := n/2 + 1
	f := &SlabReal{
		comm:   comm,
		s:      s,
		n:      n,
		nxh:    nxh,
		team:   par.NewTeam(workers),
		layout: transpose.NewSlabLayout(nxh, n, s.MZ(), comm.Size()),
		mid:    pool.GetComplex(s.MY() * n * nxh),
		met:    newPhaseMetrics(comm),
		single: single,

		atStale:    maxStale,
		atDeadline: deadline,
	}
	for w := 0; w < workers; w++ {
		f.by = append(f.by, fft.NewBatch(n, nxh, nxh, 1, nxh, 1))
		f.bz = append(f.bz, fft.NewBatch(n, nxh, nxh, 1, nxh, 1))
		f.bx = append(f.bx, fft.NewRealBatch(n, n, 1, n, 1, nxh))
	}
	// Staging buffers and persistent exchange plans exist only in the
	// precision the pipeline ships; single is a constructor parameter,
	// identical on every rank, so the collective registration order
	// stays uniform.
	if single {
		f.four32 = pool.GetComplex64(s.MZ() * n * nxh)
		f.mid32 = pool.GetComplex64(s.MY() * n * nxh)
		f.pack32 = pool.GetComplex64(s.MZ() * n * nxh)
		f.recv32 = pool.GetComplex64(s.MZ() * n * nxh)
		f.a2a32 = mpi.NewA2APlan(comm, f.pack32, f.recv32)
		f.exch32 = mpi.NewExchangePlan[complex64](comm, f.FourierLen())
	} else {
		f.pack = pool.GetComplex(s.MZ() * n * nxh)
		f.recv = pool.GetComplex(s.MZ() * n * nxh)
		f.a2a = mpi.NewA2APlan(comm, f.pack, f.recv)
		if strat == exchange.AT {
			f.exchYZ = mpi.NewExchangePlanBounded[complex128](comm, f.FourierLen(), maxStale, deadline)
			f.exchZY = mpi.NewExchangePlanBounded[complex128](comm, len(f.mid), maxStale, deadline)
		} else {
			f.exch = mpi.NewExchangePlan[complex128](comm, f.FourierLen())
		}
	}
	f.buildBodies()
	if strat == exchange.Auto {
		f.stratYZ, f.stratZY = f.autotune()
	} else {
		f.stratYZ, f.stratZY = strat, strat
	}
	f.setStrategyGauges()
	return f
}

// setStrategyGauges publishes the pinned per-direction strategies:
// exchange.strategy carries the y→z code (the PR-5 gauge, unchanged),
// exchange.strategy.zy the z→y code.
func (f *SlabReal) setStrategyGauges() {
	r := f.comm.Metrics()
	r.GaugeRank("exchange.strategy", f.comm.Rank()).Set(f.stratYZ.Code())
	r.GaugeRank("exchange.strategy.zy", f.comm.Rank()).Set(f.stratZY.Code())
}

// buildBodies precomputes the team worker closures once, so transform
// calls dispatch them with zero allocations. The closure bodies are
// the per-plane transform kernels, annotated hot so the analyzer
// checks inside them even though the closures are built at plan time.
//
//psdns:hotpath
func (f *SlabReal) buildBodies() {
	n, nxh := f.n, f.nxh
	f.invYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*n*nxh : (iz+1)*n*nxh]
			f.by[w].Inverse(plane, plane)
		}
	}
	f.fwdYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*n*nxh : (iz+1)*n*nxh]
			f.by[w].Forward(plane, plane)
		}
	}
	f.invZXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*n*nxh : (iy+1)*n*nxh]
			f.bz[w].Inverse(plane, plane)
			// complex-to-real along x: [nz][nxh] → [nz][nx].
			f.bx[w].Inverse(f.curPhys[iy*n*n:(iy+1)*n*n], plane)
		}
	}
	f.fwdXZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*n*nxh : (iy+1)*n*nxh]
			f.bx[w].Forward(plane, f.curPhys[iy*n*n:(iy+1)*n*n])
			f.bz[w].Forward(plane, plane)
		}
	}
	f.packYZBody = func(_, lo, hi int) {
		transpose.PackYZRange(&f.layout, f.pack, f.curFour, lo, hi)
	}
	f.unpYZBody = func(_, lo, hi int) {
		transpose.UnpackYZRange(&f.layout, f.mid, f.recv, lo, hi)
	}
	f.packZYBody = func(_, lo, hi int) {
		transpose.PackZYRange(&f.layout, f.pack, f.mid, lo, hi)
	}
	f.unpZYBody = func(_, lo, hi int) {
		transpose.UnpackZYRange(&f.layout, f.curFour, f.recv, lo, hi)
	}

	// Fused-exchange gather kernels: each worker reads its dst range
	// directly from every peer's published slab (f.curSrcs) — pack,
	// wire copy and unpack fused into one pass. The *Peer bodies gather
	// one peer's contribution only, for the chunked pairwise rounds.
	// All gathers run the cache-blocked variants (bitwise-identical,
	// tiled traversal) so the strided side stops thrashing at N ≥ 128.
	me, p := f.comm.Rank(), f.comm.Size()
	const tile = transpose.DefaultGatherTile
	f.gatherYZBody = func(_, lo, hi int) {
		transpose.GatherYZRangeBlocked(&f.layout, f.mid, f.curSrcs, me, lo, hi, tile)
	}
	f.gatherZYBody = func(_, lo, hi int) {
		transpose.GatherZYRangeBlocked(&f.layout, f.curFour, f.curSrcs, me, lo, hi, tile)
	}
	f.gatherYZPeerBody = func(_, lo, hi int) {
		transpose.GatherYZPeerBlocked(&f.layout, f.mid, f.curPeerSrc, me, f.curPeer, lo, hi, tile)
	}
	f.gatherZYPeerBody = func(_, lo, hi int) {
		transpose.GatherZYPeerBlocked(&f.layout, f.curFour, f.curPeerSrc, me, f.curPeer, lo, hi, tile)
	}
	f.fusedYZFn = func(srcs [][]complex128) {
		f.curSrcs = srcs
		f.team.ForWorkers(f.s.MY(), f.gatherYZBody)
		f.curSrcs = nil
	}
	f.fusedZYFn = func(srcs [][]complex128) {
		f.curSrcs = srcs
		f.team.ForWorkers(f.s.MZ(), f.gatherZYBody)
		f.curSrcs = nil
	}
	// Chunked rounds visit peers in pairwise-exchange order (round r
	// gathers from (me+r)%P, round 0 being the local slab) so that at
	// any moment each published slab is read by one rank's team.
	f.chunkedYZFn = func(srcs [][]complex128) {
		for r := 0; r < p; r++ {
			f.curPeer = (me + r) % p
			f.curPeerSrc = srcs[f.curPeer]
			f.team.ForWorkers(f.s.MY(), f.gatherYZPeerBody)
		}
		f.curPeerSrc = nil
	}
	f.chunkedZYFn = func(srcs [][]complex128) {
		for r := 0; r < p; r++ {
			f.curPeer = (me + r) % p
			f.curPeerSrc = srcs[f.curPeer]
			f.team.ForWorkers(f.s.MZ(), f.gatherZYPeerBody)
		}
		f.curPeerSrc = nil
	}

	if !f.single {
		return
	}
	// Single-precision pipeline bodies: strided narrow/widen passes
	// bracketing the exchange, and complex64 twins of the pack/unpack
	// and gather kernels (the transpose kernels are generic, so the
	// same code moves both precisions). pl is the elements per z-plane
	// on the Fourier side and per y-plane on the physical side.
	pl := n * nxh
	f.narrowFourBody = func(_, lo, hi int) {
		transpose.NarrowStrided(f.four32[lo*pl:], pl, f.curFour[lo*pl:], pl, pl, hi-lo)
	}
	f.widenFourBody = func(_, lo, hi int) {
		transpose.WidenStrided(f.curFour[lo*pl:], pl, f.four32[lo*pl:], pl, pl, hi-lo)
	}
	f.narrowMidBody = func(_, lo, hi int) {
		transpose.NarrowStrided(f.mid32[lo*pl:], pl, f.mid[lo*pl:], pl, pl, hi-lo)
	}
	f.widenMidBody = func(_, lo, hi int) {
		transpose.WidenStrided(f.mid[lo*pl:], pl, f.mid32[lo*pl:], pl, pl, hi-lo)
	}
	f.pack32YZBody = func(_, lo, hi int) {
		transpose.PackYZRange(&f.layout, f.pack32, f.four32, lo, hi)
	}
	f.unp32YZBody = func(_, lo, hi int) {
		transpose.UnpackYZRange(&f.layout, f.mid32, f.recv32, lo, hi)
	}
	f.pack32ZYBody = func(_, lo, hi int) {
		transpose.PackZYRange(&f.layout, f.pack32, f.mid32, lo, hi)
	}
	f.unp32ZYBody = func(_, lo, hi int) {
		transpose.UnpackZYRange(&f.layout, f.four32, f.recv32, lo, hi)
	}
	f.gather32YZBody = func(_, lo, hi int) {
		transpose.GatherYZRangeBlocked(&f.layout, f.mid32, f.curSrcs32, me, lo, hi, tile)
	}
	f.gather32ZYBody = func(_, lo, hi int) {
		transpose.GatherZYRangeBlocked(&f.layout, f.four32, f.curSrcs32, me, lo, hi, tile)
	}
	f.gather32YZPeerBody = func(_, lo, hi int) {
		transpose.GatherYZPeerBlocked(&f.layout, f.mid32, f.curPeerSrc32, me, f.curPeer, lo, hi, tile)
	}
	f.gather32ZYPeerBody = func(_, lo, hi int) {
		transpose.GatherZYPeerBlocked(&f.layout, f.four32, f.curPeerSrc32, me, f.curPeer, lo, hi, tile)
	}
	f.fused32YZFn = func(srcs [][]complex64) {
		f.curSrcs32 = srcs
		f.team.ForWorkers(f.s.MY(), f.gather32YZBody)
		f.curSrcs32 = nil
	}
	f.fused32ZYFn = func(srcs [][]complex64) {
		f.curSrcs32 = srcs
		f.team.ForWorkers(f.s.MZ(), f.gather32ZYBody)
		f.curSrcs32 = nil
	}
	f.chunked32YZFn = func(srcs [][]complex64) {
		for r := 0; r < p; r++ {
			f.curPeer = (me + r) % p
			f.curPeerSrc32 = srcs[f.curPeer]
			f.team.ForWorkers(f.s.MY(), f.gather32YZPeerBody)
		}
		f.curPeerSrc32 = nil
	}
	f.chunked32ZYFn = func(srcs [][]complex64) {
		for r := 0; r < p; r++ {
			f.curPeer = (me + r) % p
			f.curPeerSrc32 = srcs[f.curPeer]
			f.team.ForWorkers(f.s.MZ(), f.gather32ZYPeerBody)
		}
		f.curPeerSrc32 = nil
	}
}

// Slab reports the decomposition geometry.
func (f *SlabReal) Slab() grid.Slab { return f.s }

// NXH is the stored x extent of the half-spectrum, N/2+1.
func (f *SlabReal) NXH() int { return f.nxh }

// FourierLen is the complex element count of one local Fourier slab.
func (f *SlabReal) FourierLen() int { return f.s.MZ() * f.n * f.nxh }

// PhysicalLen is the real element count of one local physical slab.
func (f *SlabReal) PhysicalLen() int { return f.s.MY() * f.n * f.n }

// Threads reports the worker-team size.
func (f *SlabReal) Threads() int { return f.team.Size() }

// Workers reports the worker-team size (alias of Threads).
func (f *SlabReal) Workers() int { return f.team.Size() }

// Close releases the worker team, the persistent all-to-all and every
// pooled buffer back to the arena. The transform must not be used
// afterwards. Safe to call once per rank, in any order across ranks.
func (f *SlabReal) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.team.Close()
	if f.a2a != nil {
		f.a2a.Free()
	}
	if f.exch != nil {
		f.exch.Free()
	}
	if f.exchYZ != nil {
		f.exchYZ.Free()
	}
	if f.exchZY != nil {
		f.exchZY.Free()
	}
	for w := range f.by {
		f.by[w].Release()
		f.bz[w].Release()
		f.bx[w].Release()
	}
	if f.single {
		f.a2a32.Free()
		f.exch32.Free()
		pool.PutComplex64(f.four32)
		pool.PutComplex64(f.mid32)
		pool.PutComplex64(f.pack32)
		pool.PutComplex64(f.recv32)
		f.four32, f.mid32, f.pack32, f.recv32 = nil, nil, nil, nil
	} else {
		pool.PutComplex(f.pack)
		pool.PutComplex(f.recv)
		f.pack, f.recv = nil, nil
	}
	pool.PutComplex(f.mid)
	f.mid = nil
}

// FourierToPhysical transforms four=[mz][ny][nxh] (complex) into
// phys=[my][nz][nx] (real), with 1/N³ normalization. four is consumed
// as scratch.
//
//psdns:hotpath
func (f *SlabReal) FourierToPhysical(phys []float64, four []complex128) {
	mz, my := f.s.MZ(), f.s.MY()
	if len(four) != f.FourierLen() || len(phys) != f.PhysicalLen() {
		panic(fmt.Sprintf("pfft: real slab wants four %d phys %d, got %d %d",
			f.FourierLen(), f.PhysicalLen(), len(four), len(phys)))
	}
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(mz, f.invYBody)
	f.met.fft.ObserveSince(t)
	f.transposeYZ()
	t = time.Now()
	f.team.ForWorkers(my, f.invZXBody)
	f.met.fft.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

// transposeYZ moves the y-transformed Fourier slab (f.curFour) into
// the physical-side layout (f.mid) using the pinned strategy. Staged
// runs the pack → persistent all-to-all → unpack triple with per-phase
// timings; fused and chunked run one ExchangePlan.Do whose wall time
// lands in phase.a2a (gather time is additionally recorded by the plan
// in exchange.gather.ns).
//
//psdns:hotpath
func (f *SlabReal) transposeYZ() {
	if f.single {
		f.transposeYZ32()
		return
	}
	switch f.stratYZ {
	case exchange.Staged:
		t := time.Now()
		f.team.ForWorkers(f.s.MZ(), f.packYZBody)
		f.met.pack.ObserveSince(t)
		t = time.Now()
		f.a2a.Do()
		f.met.a2a.ObserveSince(t)
		t = time.Now()
		f.team.ForWorkers(f.s.MY(), f.unpYZBody)
		f.met.unpack.ObserveSince(t)
	case exchange.Fused:
		t := time.Now()
		f.exch.Do(f.curFour, f.fusedYZFn)
		f.met.a2a.ObserveSince(t)
	case exchange.AT:
		t := time.Now()
		f.exchYZ.SetSite(f.atSite)
		f.exchYZ.DoBounded(f.curFour, f.fusedYZFn, f.atStale)
		f.met.a2a.ObserveSince(t)
	default: // exchange.ChunkedFused
		t := time.Now()
		f.exch.Do(f.curFour, f.chunkedYZFn)
		f.met.a2a.ObserveSince(t)
	}
}

// transposeZY is the inverse exchange: the z/x-transformed physical-
// side slab (f.mid) back into the Fourier layout (f.curFour).
//
//psdns:hotpath
func (f *SlabReal) transposeZY() {
	if f.single {
		f.transposeZY32()
		return
	}
	switch f.stratZY {
	case exchange.Staged:
		t := time.Now()
		f.team.ForWorkers(f.s.MY(), f.packZYBody)
		f.met.pack.ObserveSince(t)
		t = time.Now()
		f.a2a.Do()
		f.met.a2a.ObserveSince(t)
		t = time.Now()
		f.team.ForWorkers(f.s.MZ(), f.unpZYBody)
		f.met.unpack.ObserveSince(t)
	case exchange.Fused:
		t := time.Now()
		f.exch.Do(f.mid, f.fusedZYFn)
		f.met.a2a.ObserveSince(t)
	case exchange.AT:
		t := time.Now()
		f.exchZY.SetSite(f.atSite)
		f.exchZY.DoBounded(f.mid, f.fusedZYFn, f.atStale)
		f.met.a2a.ObserveSince(t)
	default: // exchange.ChunkedFused
		t := time.Now()
		f.exch.Do(f.mid, f.chunkedZYFn)
		f.met.a2a.ObserveSince(t)
	}
}

// transposeYZ32 is the single-precision y→z exchange: narrow the
// y-transformed slab to complex64 (timed as pack), move it through the
// pinned strategy's complex64 path, and widen into mid (timed as
// unpack). The narrow/widen passes bracket every strategy, so the wire
// — staged blocks or fused gathers alike — always carries half bytes.
//
//psdns:hotpath
func (f *SlabReal) transposeYZ32() {
	t := time.Now()
	f.team.ForWorkers(f.s.MZ(), f.narrowFourBody)
	if f.stratYZ == exchange.Staged {
		f.team.ForWorkers(f.s.MZ(), f.pack32YZBody)
	}
	f.met.pack.ObserveSince(t)
	t = time.Now()
	switch f.stratYZ {
	case exchange.Staged:
		f.a2a32.Do()
	case exchange.Fused:
		f.exch32.Do(f.four32, f.fused32YZFn)
	default: // exchange.ChunkedFused
		f.exch32.Do(f.four32, f.chunked32YZFn)
	}
	f.met.a2a.ObserveSince(t)
	t = time.Now()
	if f.stratYZ == exchange.Staged {
		f.team.ForWorkers(f.s.MY(), f.unp32YZBody)
	}
	f.team.ForWorkers(f.s.MY(), f.widenMidBody)
	f.met.unpack.ObserveSince(t)
}

// transposeZY32 is the single-precision z→y exchange, the mirror of
// transposeYZ32: narrow mid, exchange in complex64, widen into the
// Fourier slab.
//
//psdns:hotpath
func (f *SlabReal) transposeZY32() {
	t := time.Now()
	f.team.ForWorkers(f.s.MY(), f.narrowMidBody)
	if f.stratZY == exchange.Staged {
		f.team.ForWorkers(f.s.MY(), f.pack32ZYBody)
	}
	f.met.pack.ObserveSince(t)
	t = time.Now()
	switch f.stratZY {
	case exchange.Staged:
		f.a2a32.Do()
	case exchange.Fused:
		f.exch32.Do(f.mid32, f.fused32ZYFn)
	default: // exchange.ChunkedFused
		f.exch32.Do(f.mid32, f.chunked32ZYFn)
	}
	f.met.a2a.ObserveSince(t)
	t = time.Now()
	if f.stratZY == exchange.Staged {
		f.team.ForWorkers(f.s.MZ(), f.unp32ZYBody)
	}
	f.team.ForWorkers(f.s.MZ(), f.widenFourBody)
	f.met.unpack.ObserveSince(t)
}

// PhysicalToFourier transforms phys=[my][nz][nx] (real) into
// four=[mz][ny][nxh] (complex), unnormalized.
//
//psdns:hotpath
func (f *SlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	mz, my := f.s.MZ(), f.s.MY()
	if len(four) != f.FourierLen() || len(phys) != f.PhysicalLen() {
		panic(fmt.Sprintf("pfft: real slab wants four %d phys %d, got %d %d",
			f.FourierLen(), f.PhysicalLen(), len(four), len(phys)))
	}
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(my, f.fwdXZBody)
	f.met.fft.ObserveSince(t)
	f.transposeZY()
	t = time.Now()
	f.team.ForWorkers(mz, f.fwdYBody)
	f.met.fft.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

// Strategy reports the pinned y→z transpose-exchange strategy (never
// exchange.Auto: autotuned plans report the winner).
func (f *SlabReal) Strategy() exchange.Strategy { return f.stratYZ }

// StrategyZY reports the pinned z→y transpose-exchange strategy; it
// can differ from Strategy because the two directions stream mirrored
// access patterns and are tuned independently.
func (f *SlabReal) StrategyZY() exchange.Strategy { return f.stratZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (f *SlabReal) StrategyPair() exchange.Pair {
	return exchange.Pair{YZ: f.stratYZ, ZY: f.stratZY}
}

// Single reports whether the transform ships its exchanges through the
// single-precision wire pipeline.
func (f *SlabReal) Single() bool { return f.single }

// SetATSite labels the quantity the next bounded exchanges carry (see
// mpi.ExchangePlan.SetSite): callers interleaving several fields or
// stages through one transform set a collectively-consistent site
// index before each transform call, so accepted stale slabs are always
// the same quantity from whole steps earlier. No-op on non-AT
// transforms.
func (f *SlabReal) SetATSite(site uint32) { f.atSite = site }

// TakeStaleness drains the asynchrony-tolerant staleness window since
// the previous take, summed over both directional plans: the worst
// accepted slab age (in same-site cycles), the summed age, the stale
// slab count and the number of bounded exchanges. All zeros on non-AT
// transforms (and on AT transforms whose peers kept up).
func (f *SlabReal) TakeStaleness() (max int, sum, slabs, calls int64) {
	if f.exchYZ == nil {
		return 0, 0, 0, 0
	}
	max, sum, slabs, calls = f.exchYZ.TakeStaleness()
	m2, s2, sl2, c2 := f.exchZY.TakeStaleness()
	if m2 > max {
		max = m2
	}
	return max, sum + s2, slabs + sl2, calls + c2
}

// ExchangeYZ performs only the y→z transpose-exchange of four into the
// internal physical-side buffer, using the pinned strategy. This is
// the isolated exchange kernel the bench harness pins per strategy;
// the transform entry points go through the same path.
//
//psdns:hotpath
func (f *SlabReal) ExchangeYZ(four []complex128) {
	if len(four) != f.FourierLen() {
		panic(fmt.Sprintf("pfft: ExchangeYZ wants %d elements, got %d", f.FourierLen(), len(four)))
	}
	f.curFour = four
	f.transposeYZ()
	f.curFour = nil
}

// autotune times every concrete exchange strategy, per transpose
// direction, on this plan's actual geometry, team and wire precision
// through the shared trial protocol (tuning.TrialBest /
// tuning.ResolveTimes): each rank's best-of-k per-direction times are
// summed into the y→z × z→y candidate cross-product, the table is
// allgathered, and the pair whose slowest rank is fastest wins (ties
// to the earlier candidate, so Staged/Staged is never beaten by a
// statistical wash). Every rank computes the same winner from the
// same gathered table — no extra agreement round is needed.
// Collective; runs at plan time only, using a pooled trial slab
// released before returning.
func (f *SlabReal) autotune() (yz, zy exchange.Strategy) {
	cands := exchange.Concrete
	nc := len(cands)
	trial := pool.GetComplex(f.FourierLen())
	tyz := make([]float64, nc)
	tzy := make([]float64, nc)
	for i, st := range cands {
		st := st
		tyz[i] = tuning.TrialBest(f.comm, tuning.Trials, func() { f.runTrial(st, trial) })
	}
	for i, st := range cands {
		st := st
		tzy[i] = tuning.TrialBest(f.comm, tuning.Trials, func() { f.runTrialZY(st, trial) })
	}
	pool.PutComplex(trial)
	// Cross-product table in tuning.Space order: y→z varies fastest.
	mine := make([]float64, nc*nc)
	for j := range cands {
		for i := range cands {
			mine[j*nc+i] = tyz[i] + tzy[j]
		}
	}
	win, _ := tuning.ResolveTimes(f.comm, mine)
	return cands[win%nc], cands[win/nc]
}

// runTrial executes one y→z exchange of the trial slab under st, on
// the wire precision the plan was built for. Collective (every
// strategy's exchange is bracketed by plan barriers).
func (f *SlabReal) runTrial(st exchange.Strategy, four []complex128) {
	f.curFour = four
	if f.single {
		f.team.ForWorkers(f.s.MZ(), f.narrowFourBody)
		switch st {
		case exchange.Staged:
			f.team.ForWorkers(f.s.MZ(), f.pack32YZBody)
			f.a2a32.Do()
			f.team.ForWorkers(f.s.MY(), f.unp32YZBody)
		case exchange.Fused:
			f.exch32.Do(f.four32, f.fused32YZFn)
		default:
			f.exch32.Do(f.four32, f.chunked32YZFn)
		}
		f.team.ForWorkers(f.s.MY(), f.widenMidBody)
		f.curFour = nil
		return
	}
	switch st {
	case exchange.Staged:
		f.team.ForWorkers(f.s.MZ(), f.packYZBody)
		f.a2a.Do()
		f.team.ForWorkers(f.s.MY(), f.unpYZBody)
	case exchange.Fused:
		f.exch.Do(four, f.fusedYZFn)
	default:
		f.exch.Do(four, f.chunkedYZFn)
	}
	f.curFour = nil
}

// runTrialZY executes one z→y exchange (the physical-side buffer back
// into the trial Fourier slab) under st, on the wire precision the
// plan was built for. Timed separately from runTrial because the
// mirrored access pattern can favor a different strategy. Collective.
func (f *SlabReal) runTrialZY(st exchange.Strategy, four []complex128) {
	f.curFour = four
	if f.single {
		f.team.ForWorkers(f.s.MY(), f.narrowMidBody)
		switch st {
		case exchange.Staged:
			f.team.ForWorkers(f.s.MY(), f.pack32ZYBody)
			f.a2a32.Do()
			f.team.ForWorkers(f.s.MZ(), f.unp32ZYBody)
		case exchange.Fused:
			f.exch32.Do(f.mid32, f.fused32ZYFn)
		default:
			f.exch32.Do(f.mid32, f.chunked32ZYFn)
		}
		f.team.ForWorkers(f.s.MZ(), f.widenFourBody)
		f.curFour = nil
		return
	}
	switch st {
	case exchange.Staged:
		f.team.ForWorkers(f.s.MY(), f.packZYBody)
		f.a2a.Do()
		f.team.ForWorkers(f.s.MZ(), f.unpZYBody)
	case exchange.Fused:
		f.exch.Do(f.mid, f.fusedZYFn)
	default:
		f.exch.Do(f.mid, f.chunkedZYFn)
	}
	f.curFour = nil
}

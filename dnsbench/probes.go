package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/transpose"
)

// fftShape is one batched FFT exactly as an engine builds it:
// fft.NewBatch(n, howmany, istride, idist, ostride, odist), or for a
// real batch fft.NewRealBatch(n, howmany, rstride, rdist, cstride, cdist).
type fftShape struct {
	real                                       bool
	n, howmany, istride, idist, ostride, odist int
}

// probeShapes is what one rank of a workload's engine runs, for the
// layer probes: its FFT batches, the slab length of its size-P
// exchange, and its layout gathers for one forward+inverse pair.
type probeShapes struct {
	ffts        []fftShape
	exchangeLen int
	gather      func()
	gatherBytes int
}

// fakeSlabs stands in for the p peer slabs a gather reads.
func fakeSlabs(p, n int) [][]complex128 {
	out := make([][]complex128, p)
	for s := range out {
		out[s] = make([]complex128, n)
		for i := range out[s] {
			out[s][i] = complex(float64(i%13), float64(s))
		}
	}
	return out
}

// slabShapes mirrors pfft.SlabReal: y and z lines of one plane per
// c2c call, the x real lines of one y-plane per r2c call, and the
// cache-blocked y↔z gathers over the Fourier slab.
func slabShapes(c *mpi.Comm, n int) probeShapes {
	p, me := c.Size(), c.Rank()
	nxh := n/2 + 1
	l := transpose.NewSlabLayout(nxh, n, n/p, p)
	fourSrcs, midSrcs := fakeSlabs(p, l.Total), fakeSlabs(p, l.Total)
	mid, four := make([]complex128, l.Total), make([]complex128, l.Total)
	const tile = transpose.DefaultGatherTile
	return probeShapes{
		ffts: []fftShape{
			{n: n, howmany: nxh, istride: nxh, idist: 1, ostride: nxh, odist: 1},
			{real: true, n: n, howmany: n, istride: 1, idist: n, ostride: 1, odist: nxh},
		},
		exchangeLen: l.Total,
		gather: func() {
			transpose.GatherYZRangeBlocked(&l, mid, fourSrcs, me, 0, l.My, tile)
			transpose.GatherZYRangeBlocked(&l, four, midSrcs, me, 0, l.Mz, tile)
		},
		gatherBytes: 2 * l.Total * 16,
	}
}

// asyncShapes mirrors core.AsyncSlabReal with asyncPencils pencils on
// one device: per-pencil-width c2c batches, per-z-range r2c batches,
// and the engine's per-pencil strided block gathers in both directions.
func asyncShapes(c *mpi.Comm, n int) probeShapes {
	p, me := c.Size(), c.Rank()
	nxh, mz, my := n/2+1, n/p, n/p
	var sh probeShapes
	for _, xs := range transpose.SplitSpan(nxh, asyncPencils) {
		w := xs.Width()
		sh.ffts = append(sh.ffts, fftShape{n: n, howmany: w, istride: w, idist: 1, ostride: w, odist: 1})
	}
	for _, zs := range transpose.SplitSpan(n, asyncPencils) {
		sh.ffts = append(sh.ffts, fftShape{real: true, n: n, howmany: zs.Width(), istride: 1, idist: n, ostride: 1, odist: nxh})
	}
	xr := transpose.SplitSpan(nxh, asyncPencils)
	sh.exchangeLen = p * mz * my * xr[0].Width()
	srcs := fakeSlabs(p, sh.exchangeLen)
	mid, four := make([]complex128, my*n*nxh), make([]complex128, mz*n*nxh)
	sh.gather = func() {
		for _, xs := range xr {
			w, base := xs.Width(), xs.Lo
			blk := mz * my * w
			for s := 0; s < p; s++ {
				for iz := 0; iz < mz; iz++ {
					transpose.CopyStrided(mid[(s*mz+iz)*nxh+base:], n*nxh, srcs[s][me*blk+iz*my*w:], w, w, my)
				}
			}
			for s := 0; s < p; s++ {
				for iy := 0; iy < my; iy++ {
					transpose.CopyStrided(four[(s*my+iy)*nxh+base:], n*nxh, srcs[s][me*blk+iy*mz*w:], w, w, mz)
				}
			}
		}
	}
	sh.gatherBytes = (len(mid) + len(four)) * 16
	return sh
}

// pencilShapes mirrors pfft.PencilReal over a 1×P grid: x real lines
// of one y-plane, z and y lines of one plane, and the four column/row
// gathers of a forward+inverse pair.
func pencilShapes(c *mpi.Comm, n int) probeShapes {
	l := transpose.NewPencilLayout(n, 1, c.Size(), 0, c.Rank())
	colFwdSrcs := fakeSlabs(l.Pc, l.PadXLen)
	colInvSrcs := fakeSlabs(l.Pc, l.My*l.WcMax*n)
	rowSrcs := fakeSlabs(l.Pr, max(l.BLen(), l.CLen()))
	layB, layC := make([]complex128, l.BLen()), make([]complex128, l.CLen())
	xspec := make([]complex128, l.XSpecLen())
	return probeShapes{
		ffts: []fftShape{
			{real: true, n: n, howmany: l.Mz, istride: 1, idist: n, ostride: 1, odist: l.Nxh},
			{n: n, howmany: l.Wc, istride: 1, idist: n, ostride: 1, odist: n},
		},
		exchangeLen: l.PadXLen,
		gather: func() {
			transpose.PencilGatherColFwdRange(l, layB, colFwdSrcs, 0, l.My)
			transpose.PencilGatherRowFwdRange(l, layC, rowSrcs, 0, l.Mz2)
			transpose.PencilGatherRowInvRange(l, layB, rowSrcs, 0, l.My)
			transpose.PencilGatherColInvRange(l, xspec, colInvSrcs, 0, l.My)
		},
		gatherBytes: (2*l.BLen() + l.CLen() + l.XSpecLen()) * 16,
	}
}

// maxMemArray caps each memory-reference array, so a machine with a
// very large last-level cache cannot make the probe exhaust memory;
// the record states the size used.
const maxMemArray = 1 << 30

// probeTime is how long each timed probe repeats its call.
const probeTime = 150 * time.Millisecond

// repeat calls f, each call in its own span, until probeTime has
// passed and at least minReps calls were made; it returns the median
// call time in seconds.
func repeat(rec *recorder, name string, minReps int, f func()) float64 {
	var ts []float64
	start := time.Now()
	for len(ts) < minReps || time.Since(start) < probeTime {
		id := rec.begin(name)
		t0 := time.Now()
		f()
		ts = append(ts, time.Since(t0).Seconds())
		rec.end(id)
	}
	return median(ts)
}

// probeResult holds one rank's layer-probe measurements.
type probeResult struct {
	c2cGflops, r2cGflops      float64
	gatherGBs, copyGBs        float64
	exchangeS, gatherS, waitS float64
	memGBs                    float64
	memArrayBytes, llcBytes   int64
}

// runProbes measures the fft, transpose and mpi layers at the
// workload's own shapes (collective: every rank probes at once, as the
// ranks of the workload run at once), then the memory bandwidth
// reference on rank 0 alone.
func runProbes(c *mpi.Comm, rec *recorder, sh probeShapes, llc int64) probeResult {
	var pr probeResult

	// FFT: 5N·log₂N flops per complex line, 2.5N·log₂N per real line.
	c.Barrier()
	var c2cFlops, c2cSecs, r2cFlops, r2cSecs float64
	for _, s := range sh.ffts {
		flops := float64(s.howmany) * 5 * float64(s.n) * math.Log2(float64(s.n))
		if s.real {
			b := fft.NewRealBatch(s.n, s.howmany, s.istride, s.idist, s.ostride, s.odist)
			src := make([]float64, (s.howmany-1)*s.idist+(s.n-1)*s.istride+1)
			for i := range src {
				src[i] = float64(i%7) - 3
			}
			dst := make([]complex128, (s.howmany-1)*s.odist+(s.n/2)*s.ostride+1)
			r2cFlops += flops / 2
			r2cSecs += repeat(rec, "probe.fft.r2c", 20, func() { b.Forward(dst, src) })
			b.Release()
			continue
		}
		b := fft.NewBatch(s.n, s.howmany, s.istride, s.idist, s.ostride, s.odist)
		buf := make([]complex128, max((s.howmany-1)*s.idist+(s.n-1)*s.istride+1, (s.howmany-1)*s.odist+(s.n-1)*s.ostride+1))
		for i := range buf {
			buf[i] = complex(float64(i%7)-3, 1)
		}
		c2cFlops += flops
		c2cSecs += repeat(rec, "probe.fft.c2c", 20, func() { b.Forward(buf, buf) })
		b.Release()
	}
	pr.c2cGflops = c2cFlops / c2cSecs / 1e9
	pr.r2cGflops = r2cFlops / r2cSecs / 1e9

	// Transpose: the layout gathers against a plain copy of the same bytes.
	c.Barrier()
	g := repeat(rec, "probe.transpose.gather", 10, sh.gather)
	csrc, cdst := make([]complex128, sh.gatherBytes/16), make([]complex128, sh.gatherBytes/16)
	cp := repeat(rec, "probe.transpose.copy", 10, func() { copy(cdst, csrc) })
	pr.gatherGBs = float64(sh.gatherBytes) / g / 1e9
	pr.copyGBs = float64(sh.gatherBytes) / cp / 1e9

	// Exchange: ExchangePlan.Do at the workload's slab length with the
	// benchmark's own gather callback (each peer's block for this rank,
	// copied out), timed inside the callback so transfer splits from
	// waiting at the plan's barriers.
	c.Barrier()
	p, me := c.Size(), c.Rank()
	plan := mpi.NewExchangePlan[complex128](c, sh.exchangeLen)
	src, dst := make([]complex128, sh.exchangeLen), make([]complex128, sh.exchangeLen)
	blk := sh.exchangeLen / p
	var gathers []float64
	gather := func(srcs [][]complex128) {
		id := rec.begin("probe.mpi.gather")
		t0 := time.Now()
		for s := 0; s < p; s++ {
			copy(dst[s*blk:(s+1)*blk], srcs[s][me*blk:(me+1)*blk])
		}
		gathers = append(gathers, time.Since(t0).Seconds())
		rec.end(id)
	}
	// The plan's calls are collective, so the repetition count is
	// fixed rather than timed.
	const exchangeReps = 200
	dos := make([]float64, 0, exchangeReps)
	waits := make([]float64, 0, exchangeReps)
	for i := 0; i < exchangeReps; i++ {
		id := rec.begin("probe.mpi.exchange")
		t0 := time.Now()
		plan.Do(src, gather)
		d := time.Since(t0).Seconds()
		rec.end(id)
		dos = append(dos, d)
		waits = append(waits, d-gathers[len(gathers)-1])
	}
	plan.Free()
	pr.exchangeS, pr.gatherS, pr.waitS = median(dos), median(gathers), median(waits)

	// Memory: one-thread copy between two arrays, each four times the
	// last-level cache (up to maxMemArray), so neither fits in any cache.
	c.Barrier()
	if c.Rank() == 0 {
		pr.llcBytes, pr.memArrayBytes = llc, min(4*llc, maxMemArray)
		pr.memGBs = memCopyGBs(rec, pr.memArrayBytes)
		runtime.GC()
		debug.FreeOSMemory()
	}
	c.Barrier()
	return pr
}

// memCopyGBs times a copy between two arrays of size bytes each.
func memCopyGBs(rec *recorder, size int64) float64 {
	a, b := make([]float64, size/8), make([]float64, size/8)
	for i := range a {
		a[i] = 1
	}
	copy(b, a) // fault in every page before timing
	var ts []float64
	for i := 0; i < 3; i++ {
		id := rec.begin("probe.mem.copy")
		t0 := time.Now()
		copy(b, a)
		ts = append(ts, time.Since(t0).Seconds())
		rec.end(id)
	}
	return float64(size) / median(ts) / 1e9
}

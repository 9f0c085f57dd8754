package fft

import (
	"fmt"

	"repro/internal/pool"
)

// Batch executes many transforms of the same length over strided data,
// mirroring the cufftPlanMany advanced-layout semantics the paper's GPU
// code depends on: transform t reads element j from
// src[t·idist + j·istride] and writes element k to
// dst[t·odist + k·ostride].
//
// The plan picks its kernel from its layout and factors, with no
// option. Batches of more than one line whose factors are all 2, 3 or
// 4 run the line-vectorized kernel (lines.go): interleaved batches
// (idist = odist = 1, istride = ostride ≥ howmany) over one
// [n][howmany] block read straight from the caller's memory, and
// contiguous batches (istride = ostride = 1, idist = odist ≥ n) through
// the tiled driver, tileLines lines per gathered block. Every other
// batch runs the scalar recursion line by line, reading the caller's
// strided line in place. All of them produce each line bit for bit as
// Plan would.
type Batch struct {
	p              *Plan
	howmany        int
	istride, idist int
	ostride, odist int
	block          []complex128 // [n][L] line-vectorized output block, or nil
	gath           []complex128 // tiled path: [n][L] gathered input block, or nil
	in, out        []complex128 // scalar path: gathered Bluestein input, one output line
}

// NewBatch creates a batched plan of howmany length-n transforms with
// the given input/output strides and distances.
func NewBatch(n, howmany, istride, idist, ostride, odist int) *Batch {
	if howmany < 0 || istride < 1 || ostride < 1 {
		panic(fmt.Sprintf("fft: invalid batch layout howmany=%d istride=%d ostride=%d", howmany, istride, ostride))
	}
	b := &Batch{
		p:       NewPlan(n),
		howmany: howmany,
		istride: istride, idist: idist,
		ostride: ostride, odist: odist,
	}
	// Interleaved lines (istride ≥ howmany) and contiguous lines
	// (idist ≥ n) are disjoint, and each writes back exactly the
	// positions it read (same layout on both sides), so reading a whole
	// block before writing any of its lines is indistinguishable from
	// line-by-line execution, in place too.
	interleaved := idist == 1 && odist == 1 && istride == ostride && istride >= howmany
	contiguous := istride == 1 && ostride == 1 && idist == odist && idist >= n
	switch {
	case howmany > 1 && interleaved && b.p.vectorizable():
		b.block = pool.GetComplex(n * howmany)
	case howmany > 1 && contiguous && b.p.vectorizable():
		b.gath, b.block = newTile(n, howmany)
	case b.p.blue != nil:
		b.in = pool.GetComplex(n)
		b.out = pool.GetComplex(n)
	default:
		b.out = pool.GetComplex(n)
	}
	return b
}

// Release returns the batch's scratch (and its plan's) to the process
// buffer arena. The batch must not be used afterwards.
func (b *Batch) Release() {
	b.p.Release()
	pool.PutComplex(b.block)
	pool.PutComplex(b.gath)
	pool.PutComplex(b.in)
	pool.PutComplex(b.out)
	b.block, b.gath, b.in, b.out = nil, nil, nil, nil
}

// NewContiguousBatch is shorthand for howmany back-to-back unit-stride
// transforms.
func NewContiguousBatch(n, howmany int) *Batch {
	return NewBatch(n, howmany, 1, n, 1, n)
}

// Len reports the transform length.
func (b *Batch) Len() int { return b.p.Len() }

// HowMany reports the number of transforms per execution.
func (b *Batch) HowMany() int { return b.howmany }

// Forward runs all forward transforms. dst and src may alias.
func (b *Batch) Forward(dst, src []complex128) { b.exec(dst, src, Forward) }

// Inverse runs all inverse transforms (each scaled by 1/n).
func (b *Batch) Inverse(dst, src []complex128) { b.exec(dst, src, Inverse) }

//psdns:hotpath
func (b *Batch) exec(dst, src []complex128, dir Direction) {
	p, n := b.p, b.p.n
	switch {
	case b.gath != nil:
		// Tiled: gather up to tileLines lines, run them as one
		// line-vectorized recursion, scatter them back.
		transforms.Add(int64(b.howmany))
		for t0 := 0; t0 < b.howmany; t0 += tileLines {
			L := min(tileLines, b.howmany-t0)
			gatherLines(b.gath, src[t0*b.idist:], n, L, b.idist)
			p.vtile(b.block, b.gath, L, dir)
			p.scatterLines(dst[t0*b.odist:], b.block, L, b.odist, dir)
		}
	case b.block != nil:
		// Line-vectorized: the whole batch is one recursion over the
		// block, then each bin row goes back as one contiguous run.
		L := b.howmany
		transforms.Add(int64(L))
		p.vrecurse(b.block, src, L, n, b.istride, dir, p.table(dir), p.factors)
		for k := 0; k < n; k++ {
			p.store(dst[k*b.ostride:k*b.ostride+L], 1, row(b.block, k, L), dir)
		}
	case p.blue != nil:
		// Bluestein needs its input contiguous: gather each line.
		for t := 0; t < b.howmany; t++ {
			ibase := t * b.idist
			for j := range b.in {
				b.in[j] = src[ibase+j*b.istride]
			}
			p.run(b.out, b.in, dir)
			obase := t * b.odist
			for k, v := range b.out {
				dst[obase+k*b.ostride] = v
			}
		}
	default:
		tw := p.table(dir)
		transforms.Add(int64(b.howmany))
		for t := 0; t < b.howmany; t++ {
			p.recurse(b.out, src[t*b.idist:], n, b.istride, dir, tw, p.factors)
			p.store(dst[t*b.odist:], b.ostride, b.out, dir)
		}
	}
}

// RealBatch is the real-to-complex analogue of Batch: howmany length-n
// real transforms with strided layouts. Strides attach to the data
// domain, not the call direction: (rstride, rdist) address the real
// sequences and (cstride, cdist) the half-spectra, in both Forward and
// Inverse, so one plan serves the DNS's r2c and c2r x-transforms.
//
// Like Batch, the plan picks its kernel from layout and factors.
// Unit-stride batches (rstride = cstride = 1) of more than one
// disjoint line (rdist ≥ n, cdist ≥ n/2+1) with even n whose
// half-length plan has factors 2, 3 and 4 only run the tiled driver
// (lines.go): each tile packs its lines into one [n/2][L] block, runs
// the half-length transforms line-vectorized, and unpacks every line
// with RealPlan's own pack and unpack code. Other unit-stride batches
// run RealPlan line by line on caller memory; strided ones gather each
// line first. Every line comes out bit for bit as RealPlan would
// produce it, and counts one real and one half-length complex
// transform, as RealPlan does.
type RealBatch struct {
	p              *RealPlan
	howmany        int
	rstride, rdist int
	cstride, cdist int
	// Tiled path: the gathered [n/2][L] input block and the output block.
	gath, block []complex128
	// One gathered line per domain, for strided layouts only.
	rbuf []float64
	cbuf []complex128
}

// NewRealBatch creates a batched real-transform plan.
func NewRealBatch(n, howmany, rstride, rdist, cstride, cdist int) *RealBatch {
	if howmany < 0 || rstride < 1 || cstride < 1 {
		panic(fmt.Sprintf("fft: invalid real batch layout howmany=%d rstride=%d cstride=%d", howmany, rstride, cstride))
	}
	b := &RealBatch{
		p:       NewRealPlan(n),
		howmany: howmany,
		rstride: rstride, rdist: rdist,
		cstride: cstride, cdist: cdist,
	}
	// Real and complex lines live in separate buffers, so a tile that
	// reads all its input lines before writing any output line is
	// indistinguishable from the per-line loop, provided the output
	// lines are disjoint (rdist ≥ n, cdist ≥ n/2+1): the unpack steps
	// write several lines at once, and overlapping lines would then
	// not be overwritten in batch order.
	disjoint := rdist >= n && cdist >= n/2+1
	switch {
	case !b.unitStride():
		b.rbuf = pool.GetFloat(n)
		b.cbuf = pool.GetComplex(n/2 + 1)
	case howmany > 1 && disjoint && b.p.half != nil && b.p.half.vectorizable():
		b.gath, b.block = newTile(n/2, howmany)
	}
	return b
}

// unitStride reports whether both domains are unit-stride, in which
// case the plan transforms caller memory directly with no gather.
func (b *RealBatch) unitStride() bool { return b.rstride == 1 && b.cstride == 1 }

// Release returns the batch's scratch (and its plan's) to the process
// buffer arena. The batch must not be used afterwards.
func (b *RealBatch) Release() {
	b.p.Release()
	pool.PutComplex(b.gath)
	pool.PutComplex(b.block)
	pool.PutFloat(b.rbuf)
	pool.PutComplex(b.cbuf)
	b.gath, b.block, b.rbuf, b.cbuf = nil, nil, nil, nil
}

// Forward transforms howmany real sequences from src into half-spectra
// in dst.
//
//psdns:hotpath
func (b *RealBatch) Forward(dst []complex128, src []float64) {
	n, h := b.p.Len(), b.p.HalfLen()
	if b.gath != nil {
		half := b.p.half
		realTransforms.Add(int64(b.howmany))
		transforms.Add(int64(b.howmany))
		for t0 := 0; t0 < b.howmany; t0 += tileLines {
			L := min(tileLines, b.howmany-t0)
			packReal(b.gath, src[t0*b.rdist:], n/2, L, b.rdist)
			half.vtile(b.block, b.gath, L, Forward)
			b.p.unpackForward(dst[t0*b.cdist:], b.block, L, b.cdist)
		}
		return
	}
	if b.unitStride() {
		for t := 0; t < b.howmany; t++ {
			rbase, cbase := t*b.rdist, t*b.cdist
			b.p.Forward(dst[cbase:cbase+h], src[rbase:rbase+n])
		}
		return
	}
	for t := 0; t < b.howmany; t++ {
		rbase := t * b.rdist
		for j := 0; j < n; j++ {
			b.rbuf[j] = src[rbase+j*b.rstride]
		}
		b.p.Forward(b.cbuf, b.rbuf)
		cbase := t * b.cdist
		for k := 0; k < h; k++ {
			dst[cbase+k*b.cstride] = b.cbuf[k]
		}
	}
}

// Inverse transforms howmany half-spectra from src into real sequences
// in dst (each scaled by 1/n). Residual imaginary parts of bins 0 and
// n/2 are treated as RealPlan.Inverse treats them.
//
//psdns:hotpath
func (b *RealBatch) Inverse(dst []float64, src []complex128) {
	n, h := b.p.Len(), b.p.HalfLen()
	if b.gath != nil {
		half := b.p.half
		realTransforms.Add(int64(b.howmany))
		transforms.Add(int64(b.howmany))
		for t0 := 0; t0 < b.howmany; t0 += tileLines {
			L := min(tileLines, b.howmany-t0)
			b.p.packInverse(b.gath, src[t0*b.cdist:], L, b.cdist)
			half.vtile(b.block, b.gath, L, Inverse)
			b.p.unpackInverse(dst[t0*b.rdist:], b.block, L, b.rdist)
		}
		return
	}
	if b.unitStride() {
		for t := 0; t < b.howmany; t++ {
			rbase, cbase := t*b.rdist, t*b.cdist
			b.p.Inverse(dst[rbase:rbase+n], src[cbase:cbase+h])
		}
		return
	}
	for t := 0; t < b.howmany; t++ {
		cbase := t * b.cdist
		for k := 0; k < h; k++ {
			b.cbuf[k] = src[cbase+k*b.cstride]
		}
		b.p.Inverse(b.rbuf, b.cbuf)
		rbase := t * b.rdist
		for j := 0; j < n; j++ {
			dst[rbase+j*b.rstride] = b.rbuf[j]
		}
	}
}

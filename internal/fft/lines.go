package fft

import "repro/internal/pool"

// The line-vectorized kernel runs one batch of L lines as a single DIT
// recursion over a dense [n][L] block: row k of the block holds bin k
// of every line. Each codelet and each butterfly loads its twiddles
// once and then sweeps the L contiguous lines in its inner loop, where
// the scalar recursion would pay a recursion and L table lookups per
// line.
//
// Two layouts reach it. Interleaved batches — element j of line t at
// x[j·s+t], the layout of the slab's y/z planes and of the async
// engine's per-pencil blocks — are already [n][L] rows with row stride
// s, so vrecurse reads the caller's memory directly. Unit-stride
// batches — element j of line t at x[t·dist+j], the pencil engine's
// contiguous c2c batches and the half-length lines of every engine's
// x-direction real batch — go through the tiled driver instead: a tile
// of up to tileLines lines is gathered into an [n][L] block, vrecurse
// transforms it into a second block, and each line is scattered back.
// A tile reads all its lines before writing any. The plans admit only
// layouts whose output lines are disjoint and where no line is read
// after another line has written into it (see NewBatch and
// NewRealBatch), so that order is indistinguishable from line-by-line
// execution, in place too.
//
// The arithmetic is the scalar recursion's, element for element: the
// same factor order, the same codelet and combine formulas, the same
// table entries. Only the loop nest changes (lines innermost instead
// of outermost), and gather and scatter only move values (the scatter
// applies the inverse's 1/n exactly as Plan.store does), so every line
// comes out bit for bit identical to Plan.Forward/Inverse on that
// line. The kernel covers the n ∈ {1, 2, 4, 8} codelets and the
// radix-2/3/4 combines; plans with a radix-5, generic-prime or
// Bluestein factor run their batches on the scalar recursion instead
// (see NewBatch and NewRealBatch).

// tileLines is the number of unit-stride lines one pass of the tiled
// driver carries. 32 lines keep a length-128 tile's two blocks (128 KiB)
// well inside L2 while giving every butterfly a 32-wide inner loop;
// see DESIGN.md §11 for the measurement.
const tileLines = 32

// newTile checks out the tiled driver's gathered input block and
// output block for howmany length-n lines: [n][L] each, L the widest
// tile the batch runs.
func newTile(n, howmany int) (gath, block []complex128) {
	L := min(howmany, tileLines)
	return pool.GetComplex(n * L), pool.GetComplex(n * L)
}

// lineGroup is the number of lines the gather and scatter steps move
// together: four complex128 values fill one 64-byte cache line of a
// block row. Moving one line at a time would walk the block with a
// stride of L·16 bytes, a power of two that maps every access of a
// column to a handful of L1 sets and thrashes them.
const lineGroup = 4

// gatherLines transposes L unit-stride lines of length n, line t at
// x[t·dist:], into the [n][L] block.
//
//psdns:hotpath
func gatherLines(block, x []complex128, n, L, dist int) {
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		l0 := x[t*dist:][:n]
		l1, l2, l3 := x[(t+1)*dist:][:n], x[(t+2)*dist:][:n], x[(t+3)*dist:][:n]
		for j, v := range l0 {
			r := block[j*L+t:][:lineGroup]
			r[0], r[1], r[2], r[3] = v, l1[j], l2[j], l3[j]
		}
	}
	for ; t < L; t++ {
		for j, v := range x[t*dist:][:n] {
			block[j*L+t] = v
		}
	}
}

// scatterLines writes the [n][L] block back to L unit-stride lines,
// line t at dst[t·dist:], applying the inverse's 1/n as store does.
//
//psdns:hotpath
func (p *Plan) scatterLines(dst, block []complex128, L, dist int, dir Direction) {
	n := p.n
	c := complex(1/float64(n), 0)
	scale := dir == Inverse && n > 1
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		l0 := dst[t*dist:][:n]
		l1, l2, l3 := dst[(t+1)*dist:][:n], dst[(t+2)*dist:][:n], dst[(t+3)*dist:][:n]
		for k := range l0 {
			r := block[k*L+t:][:lineGroup]
			v0, v1, v2, v3 := r[0], r[1], r[2], r[3]
			if scale {
				v0, v1, v2, v3 = v0*c, v1*c, v2*c, v3*c
			}
			l0[k], l1[k], l2[k], l3[k] = v0, v1, v2, v3
		}
	}
	for ; t < L; t++ {
		line := dst[t*dist:][:n]
		for k := range line {
			v := block[k*L+t]
			if scale {
				v *= c
			}
			line[k] = v
		}
	}
}

// vtile transforms the first L gathered lines of gath into block: the
// step every tile of the driver shares between its gather and its
// scatter.
//
//psdns:hotpath
func (p *Plan) vtile(block, gath []complex128, L int, dir Direction) {
	p.vrecurse(block, gath, L, p.n, L, dir, p.table(dir), p.factors)
}

// vectorizable reports whether every factor of the plan has a
// line-vectorized butterfly.
func (p *Plan) vectorizable() bool {
	return p.blue == nil && p.maxFactor() <= 4
}

// vrecurse is recurse over L lines at once: it computes the length-n
// DFT of rows x[0:L], x[s:s+L], … x[(n−1)·s:(n−1)·s+L] into the block
// rows out[k·L:(k+1)·L], k < n. x is only read.
//
//psdns:hotpath
func (p *Plan) vrecurse(out, x []complex128, L, n, s int, dir Direction, tw []complex128, factors []int) {
	switch n {
	case 1:
		copy(out[:L], x[:L])
		return
	case 2:
		vdft2(out, x, L, s)
		return
	case 4:
		vdft4(out, x, L, s, dir)
		return
	case 8:
		vdft8(out, x, L, s, dir)
		return
	}
	r := factors[0]
	m := n / r
	for q := 0; q < r; q++ {
		p.vrecurse(out[q*m*L:(q+1)*m*L], x[q*s:], L, m, s*r, dir, tw, factors[1:])
	}
	ws := p.n / n
	switch r {
	case 2:
		vcombine2(out, L, m, ws, tw)
	case 3:
		vcombine3(out, L, m, ws, tw, dir)
	default: // 4: vectorizable admits no other factor
		vcombine4(out, L, m, ws, tw, dir)
	}
}

// row returns row k of an [·][L] block.
func row(b []complex128, k, L int) []complex128 { return b[k*L : k*L+L] }

// vdft2 is dft2 over L lines.
func vdft2(out, x []complex128, L, s int) {
	x0 := x[:L]
	x1, o0, o1 := x[s:][:len(x0)], out[:len(x0)], out[L:][:len(x0)]
	for t, a := range x0 {
		b := x1[t]
		o0[t] = a + b
		o1[t] = a - b
	}
}

// vdft4 is dft4 over L lines.
func vdft4(out, x []complex128, L, s int, dir Direction) {
	x0 := x[:L]
	x1, x2, x3 := x[s:][:len(x0)], x[2*s:][:len(x0)], x[3*s:][:len(x0)]
	o0, o1, o2, o3 := out[:len(x0)], out[L:][:len(x0)], out[2*L:][:len(x0)], out[3*L:][:len(x0)]
	for t := range x0 {
		e0, e1 := x0[t]+x2[t], x0[t]-x2[t]
		d0, d1 := x1[t]+x3[t], x1[t]-x3[t]
		var jo complex128
		if dir == Forward {
			jo = complex(imag(d1), -real(d1))
		} else {
			jo = complex(-imag(d1), real(d1))
		}
		o0[t] = e0 + d0
		o1[t] = e1 + jo
		o2[t] = e0 - d0
		o3[t] = e1 - jo
	}
}

// vdft8 is dft8 over L lines: the even and odd length-4 codelets land
// in block rows 0–3 and 4–7, then the radix-2 pass with the exact
// eighth roots combines them in place.
func vdft8(out, x []complex128, L, s int, dir Direction) {
	vdft4(out, x, L, 2*s, dir)
	vdft4(out[4*L:], x[s:], L, 2*s, dir)
	sgn := 1.0
	if dir == Inverse {
		sgn = -1.0
	}
	e0 := out[:L]
	e1, e2, e3 := out[L:][:len(e0)], out[2*L:][:len(e0)], out[3*L:][:len(e0)]
	o0, o1, o2, o3 := out[4*L:][:len(e0)], out[5*L:][:len(e0)], out[6*L:][:len(e0)], out[7*L:][:len(e0)]
	for t := range e0 {
		u0, u1, u2, u3 := o0[t], o1[t], o2[t], o3[t]
		t0 := u0
		t1 := complex(sqrt1_2, 0) * complex(real(u1)+sgn*imag(u1), imag(u1)-sgn*real(u1))
		t2 := complex(sgn*imag(u2), -sgn*real(u2))
		t3 := complex(sqrt1_2, 0) * complex(sgn*imag(u3)-real(u3), -sgn*real(u3)-imag(u3))
		a0, a1, a2, a3 := e0[t], e1[t], e2[t], e3[t]
		e0[t] = a0 + t0
		e1[t] = a1 + t1
		e2[t] = a2 + t2
		e3[t] = a3 + t3
		o0[t] = a0 - t0
		o1[t] = a1 - t1
		o2[t] = a2 - t2
		o3[t] = a3 - t3
	}
}

// vcombine2 is combine2 over L lines.
func vcombine2(out []complex128, L, m, ws int, tw []complex128) {
	for k1 := 0; k1 < m; k1++ {
		w := tw[k1*ws]
		r0 := row(out, k1, L)
		r1 := out[(m+k1)*L:][:len(r0)]
		for t, a := range r0 {
			b := r1[t] * w
			r0[t] = a + b
			r1[t] = a - b
		}
	}
}

// vcombine3 is combine3 over L lines.
func vcombine3(out []complex128, L, m, ws int, tw []complex128, dir Direction) {
	const s3 = 0.86602540378443864676
	im := s3
	if dir == Inverse {
		im = -s3
	}
	for k1 := 0; k1 < m; k1++ {
		w1, w2 := tw[k1*ws], tw[2*k1*ws]
		r0 := row(out, k1, L)
		r1, r2 := out[(m+k1)*L:][:len(r0)], out[(2*m+k1)*L:][:len(r0)]
		for t, a := range r0 {
			b := r1[t] * w1
			c := r2[t] * w2
			sum := b + c
			diff := b - c
			r0[t] = a + sum
			re := a - complex(0.5, 0)*sum
			rot := complex(0, -im) * diff
			r1[t] = re + rot
			r2[t] = re - rot
		}
	}
}

// vcombine4 is combine4 over L lines.
func vcombine4(out []complex128, L, m, ws int, tw []complex128, dir Direction) {
	for k1 := 0; k1 < m; k1++ {
		w1, w2, w3 := tw[k1*ws], tw[2*k1*ws], tw[3*k1*ws]
		r0 := row(out, k1, L)
		r1, r2, r3 := out[(m+k1)*L:][:len(r0)], out[(2*m+k1)*L:][:len(r0)], out[(3*m+k1)*L:][:len(r0)]
		for t, a := range r0 {
			b := r1[t] * w1
			c := r2[t] * w2
			d := r3[t] * w3
			apc := a + c
			amc := a - c
			bpd := b + d
			bmd := b - d
			var jb complex128
			if dir == Forward {
				jb = complex(imag(bmd), -real(bmd))
			} else {
				jb = complex(-imag(bmd), real(bmd))
			}
			r0[t] = apc + bpd
			r1[t] = amc + jb
			r2[t] = apc - bpd
			r3[t] = amc - jb
		}
	}
}

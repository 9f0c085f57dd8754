package fft

// Small-radix base-case codelets. The recursion's leaves dominate the
// short line transforms of the DNS (a 64³ grid runs thousands of
// length-64 y/z lines per slab, each decomposing into sixteen length-4
// leaves): without codelets every leaf costs r recursive calls into
// the n==1 base case plus a combine pass with twiddle-table lookups
// whose exponents are all trivial (W⁰=1, W_4=−i, W_8=√2/2·(1−i)).
// The codelets compute the length-2/4/8 DFTs of the strided input
// directly — no recursion, no table lookups, exact ±1/±i/√2⁄2
// arithmetic — and recurse dispatches them before looking at the
// factor list. Batched callers reach them through BatchCache → Batch.exec
// → Plan.recurse on the scalar path (arbitrary-stride and single-line
// batches, radix-5 or generic-prime lengths, single plans, RealPlan's
// half-length line); interleaved batches and the tiled contiguous and
// unit-stride real batches run the same formulas line-vectorized as
// vdft2/vdft4/vdft8 (lines.go) under Plan.vrecurse. Bluestein lengths never reach either
// recursion, and any composite with 2 | n has factors drawn from
// {4, 2} ∪ odd, so n ∈ {2, 4, 8} is always a pure power of two here —
// the codelets are complete DFTs, not one factor's butterfly.

// dft2 is the length-2 DFT of x[0], x[s] into out[0:2]. The single
// twiddle is W⁰ = 1 in both directions.
func dft2(out, x []complex128, s int) {
	a, b := x[0], x[s]
	out[0] = a + b
	out[1] = a - b
}

// dft4 is the length-4 DFT of x[0], x[s], x[2s], x[3s] into out[0:4]:
// two length-2 even/odd halves combined with W_4 = ∓i applied as an
// exact component swap instead of a complex multiply.
func dft4(out, x []complex128, s int, dir Direction) {
	e0, e1 := x[0]+x[2*s], x[0]-x[2*s] // DFT2 of even samples
	o0, o1 := x[s]+x[3*s], x[s]-x[3*s] // DFT2 of odd samples
	var jo complex128                  // W_4¹·o1 = ∓i·o1
	if dir == Forward {
		jo = complex(imag(o1), -real(o1))
	} else {
		jo = complex(-imag(o1), real(o1))
	}
	out[0] = e0 + o0
	out[1] = e1 + jo
	out[2] = e0 - o0
	out[3] = e1 - jo
}

// sqrt1_2 is √2/2, the real (and negated imaginary) part of W_8.
const sqrt1_2 = 0.70710678118654752440

// dft8 is the length-8 DFT of x[0], x[s], … x[7s] into out[0:8]: two
// length-4 even/odd codelets combined radix-2 with the exact eighth
// roots W_8^k ∈ {1, √2/2·(1∓i), ∓i, −√2/2·(1±i)}.
func dft8(out, x []complex128, s int, dir Direction) {
	var e, o [4]complex128
	dft4(e[:], x, 2*s, dir)
	dft4(o[:], x[s:], 2*s, dir)
	sgn := 1.0
	if dir == Inverse {
		sgn = -1.0
	}
	// t_k = W_8^k · o[k]; W_8^k = exp(∓2πik/8).
	t0 := o[0]
	t1 := complex(sqrt1_2, 0) * complex(real(o[1])+sgn*imag(o[1]), imag(o[1])-sgn*real(o[1]))
	t2 := complex(sgn*imag(o[2]), -sgn*real(o[2]))
	t3 := complex(sqrt1_2, 0) * complex(sgn*imag(o[3])-real(o[3]), -sgn*real(o[3])-imag(o[3]))
	out[0] = e[0] + t0
	out[1] = e[1] + t1
	out[2] = e[2] + t2
	out[3] = e[3] + t3
	out[4] = e[0] - t0
	out[5] = e[1] - t1
	out[6] = e[2] - t2
	out[7] = e[3] - t3
}

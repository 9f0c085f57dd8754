package fft

import (
	"fmt"
	"math/cmplx"

	"repro/internal/pool"
)

// RealPlan transforms real sequences of length n to their n/2+1
// non-redundant complex Fourier coefficients and back, exploiting the
// conjugate symmetry X[n−k] = conj(X[k]) of real data — the same
// symmetry the DNS uses for its complex-to-real x-direction transforms.
type RealPlan struct {
	n    int
	half *Plan        // length n/2 complex plan (even n)
	full *Plan        // length n complex plan (odd n fallback)
	wr   []complex128 // wr[k] = exp(−2πi·k/n), k < n/2
	zs   []complex128
	zs2  []complex128
}

// NewRealPlan creates a real-transform plan for length n ≥ 1.
func NewRealPlan(n int) *RealPlan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid real length %d", n))
	}
	p := &RealPlan{n: n}
	if n == 1 || n%2 == 1 {
		p.full = NewPlan(n)
		p.zs = pool.GetComplex(n)
		p.zs2 = pool.GetComplex(n)
		return p
	}
	p.half = NewPlan(n / 2)
	// wr[k] = exp(−2πi·k/n) for k < n/2 is a prefix of the shared
	// length-n twiddle table.
	p.wr = twiddles(n)[:n/2]
	p.zs = pool.GetComplex(n / 2)
	p.zs2 = pool.GetComplex(n / 2)
	return p
}

// Release returns the plan's scratch buffers to the process buffer
// arena. The plan must not be used afterwards.
func (p *RealPlan) Release() {
	if p.full != nil {
		p.full.Release()
	}
	if p.half != nil {
		p.half.Release()
	}
	pool.PutComplex(p.zs)
	pool.PutComplex(p.zs2)
	p.zs, p.zs2 = nil, nil
}

// Len reports the real length n of the plan.
func (p *RealPlan) Len() int { return p.n }

// HalfLen reports the number of non-redundant complex outputs, n/2+1.
func (p *RealPlan) HalfLen() int { return p.n/2 + 1 }

// Forward computes the forward transform of the real sequence src
// (length n) into dst (length n/2+1), unnormalized.
//
//psdns:hotpath
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	n := p.n
	if len(src) != n || len(dst) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got src %d dst %d", n, len(src), len(dst)))
	}
	realTransforms.Add(1)
	if p.full != nil {
		for j, v := range src {
			p.zs[j] = complex(v, 0)
		}
		p.full.transform(p.zs2, p.zs, Forward)
		copy(dst, p.zs2[:p.HalfLen()])
		return
	}
	packReal(p.zs, src, n/2, 1, 0)
	p.half.transform(p.zs2, p.zs, Forward)
	p.unpackForward(dst, p.zs2, 1, 0)
}

// Inverse computes the inverse transform (including the 1/n factor) of
// the half-spectrum src (length n/2+1) into the real sequence dst
// (length n). The k=0 and k=n/2 inputs of a real signal's spectrum
// have zero imaginary part. For odd n a residual imaginary part of bin
// 0 is ignored (odd n has no bin n/2). For even n it is not: the
// even/odd fold adds −(Im X₀ + Im X_{n/2})/n to every even sample and
// +(Im X₀ − Im X_{n/2})/n to every odd one, so X₀ = 1+1i at n = 8
// gives [0, 0.25, 0, 0.25, …] rather than a uniform 0.125. Callers
// that want the projection onto real signals zero those imaginary
// parts first.
//
//psdns:hotpath
func (p *RealPlan) Inverse(dst []float64, src []complex128) {
	n := p.n
	if len(dst) != n || len(src) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got dst %d src %d", n, len(dst), len(src)))
	}
	realTransforms.Add(1)
	if p.full != nil {
		p.zs[0] = complex(real(src[0]), 0)
		for k := 1; k < p.HalfLen(); k++ {
			p.zs[k] = src[k]
			p.zs[n-k] = cmplx.Conj(src[k])
		}
		p.full.transform(p.zs2, p.zs, Inverse)
		p.full.store(p.zs2, 1, p.zs2, Inverse)
		for j := range dst {
			dst[j] = real(p.zs2[j])
		}
		return
	}
	p.packInverse(p.zs, src, 1, 0)
	p.half.transform(p.zs2, p.zs, Inverse)
	p.unpackInverse(dst, p.zs2, 1, 0)
}

// The even-n pack and unpack steps below work on L lines at once: the
// half-length complex lines live in an [h][L] block (element j of line
// t at block[j·L+t]), the tiled driver's layout. RealPlan runs them
// with L = 1, where the block is the plain line, and RealBatch with a
// whole tile, so both execute the same expressions per element and
// produce the same bits.

// packReal packs L real lines of length 2h, line t at x[t·dist:], into
// the [h][L] block of pairs z_j = x[2j] + i·x[2j+1].
//
//psdns:hotpath
func packReal(block []complex128, x []float64, h, L, dist int) {
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		l0 := x[t*dist:][:2*h]
		l1, l2, l3 := x[(t+1)*dist:][:2*h], x[(t+2)*dist:][:2*h], x[(t+3)*dist:][:2*h]
		for j := 0; j < h; j++ {
			r := block[j*L+t:][:lineGroup]
			r[0] = complex(l0[2*j], l0[2*j+1])
			r[1] = complex(l1[2*j], l1[2*j+1])
			r[2] = complex(l2[2*j], l2[2*j+1])
			r[3] = complex(l3[2*j], l3[2*j+1])
		}
	}
	for ; t < L; t++ {
		line := x[t*dist:][:2*h]
		for j := 0; j < h; j++ {
			block[j*L+t] = complex(line[2*j], line[2*j+1])
		}
	}
}

// unpackBin is the conjugate-symmetric even/odd split of one forward
// bin: X_k = E_k + W^k·O_k from z_k and z_{h−k}, w = W^k.
func unpackBin(zk, zhk, w complex128) complex128 {
	zc := cmplx.Conj(zhk)
	xe := (zk + zc) * 0.5
	xo := (zk - zc) * complex(0, -0.5)
	return xe + w*xo
}

// unpackForward turns the [h][L] block z of half-length spectra into L
// half-spectra of length h+1, line t at dst[t·dist:]. Bins 0 and h
// both unpack z_0 (z has period h); they differ only in the twiddle,
// W⁰ = wr[0] and W^h = −1.
//
//psdns:hotpath
func (p *RealPlan) unpackForward(dst, z []complex128, L, dist int) {
	h := p.n / 2
	w0 := p.wr[0]
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		d0 := dst[t*dist:][:h+1]
		d1, d2, d3 := dst[(t+1)*dist:][:h+1], dst[(t+2)*dist:][:h+1], dst[(t+3)*dist:][:h+1]
		r := z[t:][:lineGroup]
		d0[0], d0[h] = unpackBin(r[0], r[0], w0), unpackBin(r[0], r[0], -1)
		d1[0], d1[h] = unpackBin(r[1], r[1], w0), unpackBin(r[1], r[1], -1)
		d2[0], d2[h] = unpackBin(r[2], r[2], w0), unpackBin(r[2], r[2], -1)
		d3[0], d3[h] = unpackBin(r[3], r[3], w0), unpackBin(r[3], r[3], -1)
		for k := 1; k < h; k++ {
			w := p.wr[k]
			r := z[k*L+t:][:lineGroup]
			m := z[(h-k)*L+t:][:lineGroup]
			d0[k] = unpackBin(r[0], m[0], w)
			d1[k] = unpackBin(r[1], m[1], w)
			d2[k] = unpackBin(r[2], m[2], w)
			d3[k] = unpackBin(r[3], m[3], w)
		}
	}
	for ; t < L; t++ {
		d := dst[t*dist:][:h+1]
		d[0], d[h] = unpackBin(z[t], z[t], w0), unpackBin(z[t], z[t], -1)
		for k := 1; k < h; k++ {
			d[k] = unpackBin(z[k*L+t], z[(h-k)*L+t], p.wr[k])
		}
	}
}

// foldBin is the inverse of unpackBin: the half-length inverse's input
// E_k + i·O_k from X_k and X_{h−k}, w = W^k.
func foldBin(xk, xhk, w complex128) complex128 {
	xc := cmplx.Conj(xhk)
	xe := (xk + xc) * 0.5
	xo := (xk - xc) * 0.5 * cmplx.Conj(w)
	return xe + complex(0, 1)*xo
}

// packInverse folds L half-spectra, line t at src[t·dist:], into the
// [h][L] block of the half-length inverse's inputs. Bins 0 and h meet
// in row 0, imaginary parts included.
//
//psdns:hotpath
func (p *RealPlan) packInverse(block, src []complex128, L, dist int) {
	h := p.n / 2
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		s0 := src[t*dist:][:h+1]
		s1, s2, s3 := src[(t+1)*dist:][:h+1], src[(t+2)*dist:][:h+1], src[(t+3)*dist:][:h+1]
		for k := 0; k < h; k++ {
			w := p.wr[k]
			r := block[k*L+t:][:lineGroup]
			r[0] = foldBin(s0[k], s0[h-k], w)
			r[1] = foldBin(s1[k], s1[h-k], w)
			r[2] = foldBin(s2[k], s2[h-k], w)
			r[3] = foldBin(s3[k], s3[h-k], w)
		}
	}
	for ; t < L; t++ {
		s := src[t*dist:][:h+1]
		for k := 0; k < h; k++ {
			block[k*L+t] = foldBin(s[k], s[h-k], p.wr[k])
		}
	}
}

// unpackInverse applies the half-length inverse's 1/h to the [h][L]
// block z, as Plan.store does (a length-1 half plan passes through
// unscaled), and splits it into L real lines of length 2h, line t at
// dst[t·dist:], with x[2j] = Re z_j and x[2j+1] = Im z_j.
//
//psdns:hotpath
func (p *RealPlan) unpackInverse(dst []float64, z []complex128, L, dist int) {
	h := p.n / 2
	c := complex(1/float64(h), 0)
	scale := h > 1
	t := 0
	for ; t+lineGroup <= L; t += lineGroup {
		d0 := dst[t*dist:][:2*h]
		d1, d2, d3 := dst[(t+1)*dist:][:2*h], dst[(t+2)*dist:][:2*h], dst[(t+3)*dist:][:2*h]
		for j := 0; j < h; j++ {
			r := z[j*L+t:][:lineGroup]
			v0, v1, v2, v3 := r[0], r[1], r[2], r[3]
			if scale {
				v0, v1, v2, v3 = v0*c, v1*c, v2*c, v3*c
			}
			d0[2*j], d0[2*j+1] = real(v0), imag(v0)
			d1[2*j], d1[2*j+1] = real(v1), imag(v1)
			d2[2*j], d2[2*j+1] = real(v2), imag(v2)
			d3[2*j], d3[2*j+1] = real(v3), imag(v3)
		}
	}
	for ; t < L; t++ {
		d := dst[t*dist:][:2*h]
		for j := 0; j < h; j++ {
			v := z[j*L+t]
			if scale {
				v *= c
			}
			d[2*j], d[2*j+1] = real(v), imag(v)
		}
	}
}

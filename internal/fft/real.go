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
	h := n / 2
	for j := 0; j < h; j++ {
		p.zs[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.transform(p.zs2, p.zs, Forward)
	z := p.zs2
	// Bins 0 and h both unpack z[0] (z has period h); they differ only
	// in the twiddle, W⁰ = wr[0] and W^h = −1.
	zk := z[0]
	zc := cmplx.Conj(z[0])
	xe := (zk + zc) * 0.5
	xo := (zk - zc) * complex(0, -0.5)
	dst[0] = xe + p.wr[0]*xo
	dst[h] = xe + complex(-1, 0)*xo
	for k := 1; k < h; k++ {
		zk := z[k]
		zc := cmplx.Conj(z[h-k])
		xe := (zk + zc) * 0.5
		xo := (zk - zc) * complex(0, -0.5)
		dst[k] = xe + p.wr[k]*xo
	}
}

// Inverse computes the inverse transform (including the 1/n factor) of
// the half-spectrum src (length n/2+1) into the real sequence dst
// (length n). The k=0 and k=n/2 inputs should have zero imaginary part;
// any residual imaginary part is ignored, matching conjugate symmetry.
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
	h := n / 2
	for k := 0; k < h; k++ {
		xk := src[k]
		xc := cmplx.Conj(src[h-k])
		xe := (xk + xc) * 0.5
		xo := (xk - xc) * 0.5 * cmplx.Conj(p.wr[k])
		p.zs[k] = xe + complex(0, 1)*xo
	}
	p.half.transform(p.zs2, p.zs, Inverse)
	p.half.store(p.zs2, 1, p.zs2, Inverse)
	for j, z := range p.zs2 {
		dst[2*j] = real(z)
		dst[2*j+1] = imag(z)
	}
}

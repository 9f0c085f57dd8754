package fft

import (
	"fmt"

	"repro/internal/pool"
)

// Direction selects the sign of the transform exponent.
type Direction int

const (
	// Forward computes X[k] = Σ x[j]·exp(−2πi·jk/n), unnormalized.
	Forward Direction = -1
	// Inverse computes x[j] = (1/n)·Σ X[k]·exp(+2πi·jk/n).
	Inverse Direction = +1
)

// maxDirectPrime is the largest prime factor handled by the direct
// O(r²) butterfly; larger primes fall back to Bluestein's algorithm.
const maxDirectPrime = 61

// Plan holds precomputed twiddle factors and the factorization of a
// fixed transform length. A Plan carries internal scratch, so a single
// Plan must not be used concurrently; allocate one Plan per goroutine
// (as the per-worker plan maps in pfft and core do).
type Plan struct {
	n       int
	factors []int
	tw      *twTable   // shared forward and conjugate twiddles
	blue    *bluestein // non-nil when a prime factor exceeds maxDirectPrime
	scratch []complex128
	gen     []complex128 // generic-radix butterfly gather buffer
}

// NewPlan creates a plan for complex transforms of length n (n ≥ 1).
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	plansCreated.Add(1)
	p := &Plan{n: n}
	p.factors = factorize(n)
	if p.maxFactor() > maxDirectPrime {
		p.blue = newBluestein(n)
		return p
	}
	p.tw = twiddleTables(n)
	p.scratch = pool.GetComplex(n)
	p.gen = pool.GetComplex(p.maxFactor())
	return p
}

// maxFactor is the largest factor of the plan's length (0 for n = 1).
func (p *Plan) maxFactor() int {
	maxF := 0
	for _, f := range p.factors {
		maxF = max(maxF, f)
	}
	return maxF
}

// Release returns the plan's scratch buffers to the process buffer
// arena. The plan must not be used afterwards. Twiddle tables are
// shared and stay cached.
func (p *Plan) Release() {
	if p.blue != nil {
		p.blue.release()
		p.blue = nil
	}
	pool.PutComplex(p.scratch)
	pool.PutComplex(p.gen)
	p.scratch, p.gen = nil, nil
}

// Len reports the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// Forward computes the forward DFT of src into dst. dst and src must
// each have length n and may alias.
func (p *Plan) Forward(dst, src []complex128) { p.run(dst, src, Forward) }

// Inverse computes the inverse DFT (including the 1/n factor) of src
// into dst. dst and src must each have length n and may alias.
func (p *Plan) Inverse(dst, src []complex128) { p.run(dst, src, Inverse) }

//psdns:hotpath
func (p *Plan) run(dst, src []complex128, dir Direction) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	// The recursion reads src and writes scratch, so dst may alias
	// src; Bluestein reads src in full before writing dst.
	out := p.scratch
	if p.blue != nil {
		out = dst
	}
	p.transform(out, src, dir)
	p.store(dst, 1, out, dir)
}

// transform computes the unnormalized DFT of the unit-stride line x
// into out, which must not alias x unless the plan is Bluestein. It
// counts one transform.
//
//psdns:hotpath
func (p *Plan) transform(out, x []complex128, dir Direction) {
	transforms.Add(1)
	if p.blue != nil {
		p.blue.transform(out, x, dir)
		return
	}
	p.recurse(out, x, p.n, 1, dir, p.table(dir), p.factors)
}

// store writes v[k] to dst[k·stride], applying the inverse transform's
// 1/n factor; length-1 plans pass through unscaled, as they always
// have. v is one output line, or one bin row of a line-vectorized
// block, and may be dst itself (stride 1).
//
//psdns:hotpath
func (p *Plan) store(dst []complex128, stride int, v []complex128, dir Direction) {
	if dir == Forward || p.n == 1 {
		if stride == 1 {
			copy(dst, v)
			return
		}
		for k, x := range v {
			dst[k*stride] = x
		}
		return
	}
	c := complex(1/float64(p.n), 0)
	for k, x := range v {
		dst[k*stride] = x * c
	}
}

// table returns the twiddle table of the requested direction: the
// forward table, or its conjugate for inverse transforms.
func (p *Plan) table(dir Direction) []complex128 {
	if dir == Inverse {
		return p.tw.wc
	}
	return p.tw.w
}

// recurse computes the length-n DFT of x[0], x[s], … x[(n−1)·s] into
// out[0:n] by decimation in time over the remaining factors; tw is the
// plan-global twiddle table of the direction. x is only read, so it
// may be the caller's strided line. Short power-of-two lengths
// dispatch to the direct codelets (codelet.go) before factor
// decomposition: at those lengths the remaining factors are exactly
// {4}, {4,2} or {2}, so the codelet computes the same DFT without the
// per-leaf recursion and twiddle-table traffic.
//
//psdns:hotpath
func (p *Plan) recurse(out, x []complex128, n, s int, dir Direction, tw []complex128, factors []int) {
	switch n {
	case 1:
		out[0] = x[0]
		return
	case 2:
		dft2(out, x, s)
		return
	case 4:
		dft4(out, x, s, dir)
		return
	case 8:
		dft8(out, x, s, dir)
		return
	}
	r := factors[0]
	m := n / r
	// Sub-transforms: F_q = DFT of x[q·s], x[q·s+r·s], … (length m).
	for q := 0; q < r; q++ {
		p.recurse(out[q*m:(q+1)*m], x[q*s:], m, s*r, dir, tw, factors[1:])
	}
	// Combine: X[k1 + m·k2] = Σ_q W_n^{q·k1}·W_r^{q·k2}·F_q[k1].
	// Twiddle stride into the global table: ws = N/n.
	ws := p.n / n
	switch r {
	case 2:
		combine2(out, m, ws, tw)
	case 3:
		combine3(out, m, ws, tw, dir)
	case 4:
		combine4(out, m, ws, tw, dir)
	case 5:
		combine5(out, m, ws, tw, dir)
	default:
		p.combineGeneric(out, r, m, ws, tw)
	}
}

// factorize returns the prime factorization of n in ascending order,
// with factors of 4 preferred over pairs of 2 for the radix-4 butterfly.
func factorize(n int) []int {
	var fs []int
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	for n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for f := 3; f*f <= n; f += 2 {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

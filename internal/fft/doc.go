// Package fft provides from-scratch fast Fourier transforms used by the
// pseudo-spectral DNS code: complex-to-complex transforms of any length
// (radix-4/2/3/5 butterflies, direct butterflies for primes up to 61,
// and Bluestein's algorithm for lengths with larger prime factors),
// real-to-complex and complex-to-real transforms exploiting conjugate
// symmetry, and batched strided plans mirroring the plan semantics of
// cuFFT that the paper's GPU kernels rely on. Batches whose factors
// are 2, 3 or 4 run line-vectorized, many lines per butterfly, as
// cufftPlanMany does: interleaved batches straight from caller memory,
// contiguous complex and unit-stride real batches through a tiled
// gather into the same [n][L] block. Every line comes out bit for bit
// as the single-line plan computes it.
//
// Conventions: the forward transform computes
//
//	X[k] = Σ_j x[j]·exp(−2πi·jk/n)
//
// and is unnormalized; the inverse transform includes the 1/n factor so
// that Inverse(Forward(x)) == x.
package fft

package fft

// The combine* functions implement the decimation-in-time butterfly for
// one recursion level. On entry out holds the r sub-transforms F_q in
// blocks of length m (F_q[k1] at out[q·m+k1]); on exit out holds the
// combined length-(r·m) transform, with X[k1+m·k2] stored in place of
// the gathered positions {k1+m·q}. For a fixed k1 the read set and the
// write set are the same r positions, so a small gather buffer suffices.
//
// tw is the plan-global table of the transform's direction (forward,
// or its conjugate for inverse), so W_n^{q·k1} is tw[q·k1·ws] with
// ws = N/n: every such exponent is below N and needs no reduction.
// Only the generic radix's W_r^{q·k2} exponent wraps.

func combine2(out []complex128, m, ws int, tw []complex128) {
	for k1 := 0; k1 < m; k1++ {
		a := out[k1]
		b := out[m+k1] * tw[k1*ws]
		out[k1] = a + b
		out[m+k1] = a - b
	}
}

func combine3(out []complex128, m, ws int, tw []complex128, dir Direction) {
	// W_3 = exp(−2πi/3) = −1/2 − i·√3/2 (conjugated for inverse).
	const s3 = 0.86602540378443864676
	im := s3
	if dir == Inverse {
		im = -s3
	}
	for k1 := 0; k1 < m; k1++ {
		a := out[k1]
		b := out[m+k1] * tw[k1*ws]
		c := out[2*m+k1] * tw[2*k1*ws]
		sum := b + c
		diff := b - c
		out[k1] = a + sum
		// a + W3·b + W3²·c and a + W3²·b + W3·c
		re := a - complex(0.5, 0)*sum
		rot := complex(0, -im) * diff
		out[m+k1] = re + rot
		out[2*m+k1] = re - rot
	}
}

func combine4(out []complex128, m, ws int, tw []complex128, dir Direction) {
	for k1 := 0; k1 < m; k1++ {
		a := out[k1]
		b := out[m+k1] * tw[k1*ws]
		c := out[2*m+k1] * tw[2*k1*ws]
		d := out[3*m+k1] * tw[3*k1*ws]
		apc := a + c
		amc := a - c
		bpd := b + d
		bmd := b - d
		// W_4 = −i forward, +i inverse.
		var jb complex128
		if dir == Forward {
			jb = complex(imag(bmd), -real(bmd)) // −i·(b−d)
		} else {
			jb = complex(-imag(bmd), real(bmd)) // +i·(b−d)
		}
		out[k1] = apc + bpd
		out[m+k1] = amc + jb
		out[2*m+k1] = apc - bpd
		out[3*m+k1] = amc - jb
	}
}

func combine5(out []complex128, m, ws int, tw []complex128, dir Direction) {
	// Direct 5-point butterfly using W_5 powers from the global table:
	// W_5 = W_n^{m·ws·…}; equivalently use precomputed constants.
	const (
		c1 = 0.30901699437494742410 // cos(2π/5)
		s1 = 0.95105651629515357212 // sin(2π/5)
		c2 = -0.80901699437494742410
		s2 = 0.58778525229247312917
	)
	sgn := 1.0
	if dir == Inverse {
		sgn = -1.0
	}
	for k1 := 0; k1 < m; k1++ {
		a := out[k1]
		t1 := out[m+k1] * tw[k1*ws]
		t2 := out[2*m+k1] * tw[2*k1*ws]
		t3 := out[3*m+k1] * tw[3*k1*ws]
		t4 := out[4*m+k1] * tw[4*k1*ws]
		s14 := t1 + t4
		d14 := t1 - t4
		s23 := t2 + t3
		d23 := t2 - t3
		out[k1] = a + s14 + s23
		for idx, cs := range [...][4]float64{
			{c1, s1, c2, s2}, // k2 = 1
			{c2, s2, c1, -s1},
			{c2, -s2, c1, s1},
			{c1, -s1, c2, -s2},
		} {
			re := a + complex(cs[0], 0)*s14 + complex(cs[2], 0)*s23
			im := complex(0, -sgn*cs[1])*d14 + complex(0, -sgn*cs[3])*d23
			out[(idx+1)*m+k1] = re + im
		}
	}
}

// combineGeneric handles any small prime radix with an O(r²) butterfly
// using the plan's preallocated gather buffer (safe: recursion within
// one transform is strictly sequential).
func (p *Plan) combineGeneric(out []complex128, r, m, ws int, tw []complex128) {
	t := p.gen[:r]
	for k1 := 0; k1 < m; k1++ {
		for q := 0; q < r; q++ {
			t[q] = out[q*m+k1] * tw[q*k1*ws]
		}
		for k2 := 0; k2 < r; k2++ {
			acc := t[0]
			for q := 1; q < r; q++ {
				// W_r^{q·k2} = W_n^{m·q·k2} = W_N^{ws·m·q·k2}.
				acc += t[q] * tw[(ws*m*q*k2)%p.n]
			}
			out[k2*m+k1] = acc
		}
	}
}

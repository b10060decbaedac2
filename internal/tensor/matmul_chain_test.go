package tensor

import (
	"math"
	"testing"
)

// fma32 returns a*b+c rounded once to float32, as one lane of VFMADD231PS
// computes it. math.FMA rounds to float64 first, and rounding that again to
// float32 goes wrong only where the float64 result sits exactly on a
// float32 midpoint (or lies in float32's subnormal range). There an inexact
// result is moved to its odd neighbour on the side of the exact value
// (round to odd), which makes the second rounding exact: 53 ≥ 2·24+2.
func fma32(a, b, c float32) float32 {
	x, y, z := float64(a), float64(b), float64(c)
	s := math.FMA(x, y, z)
	if bits := math.Float64bits(s); bits&(1<<29-1) == 1<<28 || math.Abs(s) < 0x1p-126 {
		// TwoSum: x*y + z == s + e exactly, as x*y is exact (24+24 bits).
		p := x * y
		bv := s - p
		e := (p - (s - bv)) + (z - bv)
		if e != 0 && bits&1 == 0 {
			s = math.Nextafter(s, math.Copysign(math.Inf(1), e))
		}
	}
	return float32(s)
}

// refGemmChain computes A·b with the SIMD A·B / Aᵀ·B element chain, where
// A(i, p) = a[i*ars+p*acs] and b is [k, n]: FMA in ascending p over
// p < k&^3 from +0, then an unfused multiply and add per remaining p.
func refGemmChain(a, b []float32, m, k, n, ars, acs int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		acc := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			x, brow := a[i*ars+p*acs], b[p*n:(p+1)*n]
			for j, y := range brow {
				if p < k&^3 {
					acc[j] = fma32(x, y, acc[j])
				} else {
					acc[j] += float32(x * y) // the conversion forbids fusing
				}
			}
		}
	}
	return out
}

// refDotChain computes one A·Bᵀ element with the SIMD chain: lane l FMAs
// the terms p ≡ l (mod 8) of p < k&^7 from +0, lanes l+4 fold into l, the
// k%8 tail FMAs into lane 0, and the result is (l0+l1)+(l2+l3).
func refDotChain(a, b []float32) float32 {
	var lane [8]float32
	p := 0
	for ; p+8 <= len(a); p += 8 {
		for l := range lane {
			lane[l] = fma32(a[p+l], b[p+l], lane[l])
		}
	}
	var lo [4]float32
	for l := range lo {
		lo[l] = lane[l] + lane[l+4]
	}
	for ; p < len(a); p++ {
		lo[0] = fma32(a[p], b[p], lo[0])
	}
	return (lo[0] + lo[1]) + (lo[2] + lo[3])
}

func refDotBTChain(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = refDotChain(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
		}
	}
	return out
}

// chainInput fills a length-n operand with normal samples, sprinkling in
// zeros, negative zeros and tiny values so signed-zero and cancellation
// cases reach the kernels.
func chainInput(rng *RNG, n int) []float32 {
	t := New(n)
	rng.FillNormal(t, 0, 1)
	for i := range t.Data {
		switch i % 11 {
		case 3:
			t.Data[i] = 0
		case 7:
			t.Data[i] = float32(math.Copysign(0, -1))
		case 9:
			t.Data[i] *= 1e-4
		}
	}
	return t.Data
}

// TestMatMulExactChains pins the SIMD kernels' numerics bit for bit: every
// output of MatMul, MatMulAT and MatMulBT must equal the pure-Go chain
// reference, over every small shape that reaches a tile edge or a k tail,
// and over the production LM/conv shapes. It also checks that the kernels
// write nothing past the m×n output.
func TestMatMulExactChains(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("SIMD not available on this machine")
	}
	type shape struct{ m, k, n int }
	var shapes []shape
	for m := 1; m <= 9; m++ {
		for _, k := range []int{0, 1, 3, 4, 5, 7, 8, 9, 17, 33} {
			for n := 1; n <= 19; n++ {
				shapes = append(shapes, shape{m, k, n})
			}
			shapes = append(shapes, shape{m, k, 31}, shape{m, k, 33})
		}
	}
	shapes = append(shapes,
		shape{304, 64, 2000}, shape{304, 18, 2000}, shape{304, 64, 64}, shape{19, 19, 32},
		shape{32, 288, 64}, shape{304, 2000, 64}, shape{304, 2000, 18}, shape{6, 1024, 75},
		shape{64, 304, 2000}, shape{18, 304, 2000}, shape{288, 32, 64})

	const pad = 37
	sentinel := float32(math.Float32frombits(0x7fc0dead))
	rng := NewRNG(29)
	for _, s := range shapes {
		m, k, n := s.m, s.k, s.n
		a, b := chainInput(rng, m*k), chainInput(rng, k*n)
		bt, at := chainInput(rng, n*k), chainInput(rng, k*m)
		for _, c := range []struct {
			name string
			run  func(dst []float32)
			want []float32
		}{
			{"MatMul", func(dst []float32) { MatMulRawInto(dst, a, b, m, k, n) }, refGemmChain(a, b, m, k, n, k, 1)},
			{"MatMulAT", func(dst []float32) { MatMulATRawInto(dst, at, b, m, k, n) }, refGemmChain(at, b, m, k, n, 1, m)},
			{"MatMulBT", func(dst []float32) { MatMulBTRawInto(dst, a, bt, m, k, n) }, refDotBTChain(a, bt, m, k, n)},
		} {
			dst := make([]float32, m*n+pad)
			for i := range dst {
				dst[i] = sentinel
			}
			c.run(dst)
			for i, w := range c.want {
				if math.Float32bits(dst[i]) != math.Float32bits(w) {
					t.Fatalf("%s %dx%dx%d: out[%d,%d] = %v (%#08x), chain reference %v (%#08x)",
						c.name, m, k, n, i/n, i%n, dst[i], math.Float32bits(dst[i]), w, math.Float32bits(w))
				}
			}
			for i := m * n; i < len(dst); i++ {
				if math.Float32bits(dst[i]) != math.Float32bits(sentinel) {
					t.Fatalf("%s %dx%dx%d: wrote past the output at element %d", c.name, m, k, n, i)
				}
			}
		}
	}
}

// TestFMA32 checks the reference's single rounding on products whose
// float64 FMA lands exactly on a float32 midpoint, where rounding twice
// picks the wrong neighbour.
func TestFMA32(t *testing.T) {
	const ulp = 0x1p-23 // float32 ulp of 1
	for _, c := range []struct {
		name    string
		a, b, c float32
		want    float32
	}{
		// (1+2⁻²³)·2⁻²⁴(1-2⁻²³) = 2⁻²⁴ - 2⁻⁷⁰: just below the midpoint
		// above 1+2⁻²³, which a double rounding would tie up to 1+2⁻²².
		{"below midpoint", 1 + ulp, 0x1p-24 * (1 - ulp), 1 + ulp, 1 + ulp},
		// 8390625·16773183 = 2⁴⁷ + 254047, so a·b = 2⁻²⁴ + 254047·2⁻⁷¹:
		// just above the midpoint above 1, which a double rounding would
		// tie down to 1.
		{"above midpoint", 8390625 * 0x1p-23, 16773183 * 0x1p-48, 1, 1 + ulp},
		{"exact", 3, 5, 7, 22},
		{"signed zero", float32(math.Copysign(0, -1)), 1, 0, 0},
	} {
		if got := fma32(c.a, c.b, c.c); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("%s: fma32 = %v (%#08x), want %v", c.name, got, math.Float32bits(got), c.want)
		}
	}
}

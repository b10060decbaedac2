package tensor_test

import (
	"fmt"
	"testing"

	"amalgam/internal/autodiff"
	"amalgam/internal/tensor"
)

// TestLinearMatchesUnfusedOnBothBackends pins autodiff.Linear against the
// unfused AddRowBias(MatMul) pair it replaced in nn.Linear: forward value
// and the x, W and bias gradients bit for bit, on the SIMD and the pure-Go
// kernels. It lives here, as an external test of this package, because
// only this package's tests can switch the kernel backend. Shapes are
// ragged on purpose: row counts that leave a partial four-row bias-grad
// block and widths off the 8-lane SIMD width.
func TestLinearMatchesUnfusedOnBothBackends(t *testing.T) {
	shapes := []struct{ n, in, out int }{
		{1, 3, 5}, {5, 13, 19}, {33, 64, 48}, {20, 64, 203},
	}
	for _, simd := range []bool{false, true} {
		prev := tensor.SetSIMD(simd)
		if simd && !tensor.SIMDEnabled() {
			tensor.SetSIMD(prev)
			t.Log("AVX2 not available; SIMD dispatch not exercised")
			continue
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("simd=%v/%dx%dx%d", simd, sh.n, sh.in, sh.out), func(t *testing.T) {
				rng := tensor.NewRNG(uint64(79 + sh.n))
				x := tensor.New(sh.n, sh.in)
				w := tensor.New(sh.in, sh.out)
				b := tensor.New(sh.out)
				rng.FillNormal(x, 0, 1)
				rng.FillNormal(w, 0, 0.5)
				rng.FillNormal(b, 0, 0.5)

				xF, wF, bF := autodiff.Leaf(x.Clone()), autodiff.Leaf(w.Clone()), autodiff.Leaf(b.Clone())
				fused := autodiff.Linear(xF, wF, bF)
				xP, wP, bP := autodiff.Leaf(x.Clone()), autodiff.Leaf(w.Clone()), autodiff.Leaf(b.Clone())
				plain := autodiff.AddRowBias(autodiff.MatMul(xP, wP), bP)
				if !fused.Val.Equal(plain.Val) {
					t.Fatal("Linear forward differs from AddRowBias(MatMul)")
				}
				// A Tanh head gives every output element a distinct upstream
				// gradient, so the bias-grad column sums see real rounding.
				lossF, lossP := autodiff.Mean(autodiff.Tanh(fused)), autodiff.Mean(autodiff.Tanh(plain))
				autodiff.Backward(lossF)
				autodiff.Backward(lossP)
				if !xF.Grad.Equal(xP.Grad) {
					t.Error("Linear dX differs from AddRowBias(MatMul)")
				}
				if !wF.Grad.Equal(wP.Grad) {
					t.Error("Linear dW differs from AddRowBias(MatMul)")
				}
				if !bF.Grad.Equal(bP.Grad) {
					t.Error("Linear dbias differs from AddRowBias(MatMul)")
				}
				autodiff.Release(lossF)
				autodiff.Release(lossP)
			})
		}
		tensor.SetSIMD(prev)
	}
}

package autodiff

import (
	"fmt"

	"amalgam/internal/tensor"
)

// Fused bias+activation ops. A Linear or Conv2d followed by ReLU is the
// most common layer pair in every model here; fusing the bias add and the
// activation into the epilogue of the preceding kernel removes one full
// read+write pass over the activations and one graph node per pair. The
// backward passes reconstruct the ReLU mask from the fused output (y > 0
// iff the pre-activation was positive), so no mask tensor is stored.

// AddRowBiasReLU computes relu(x + bias) for x [N, D] and bias [D] as a
// single node — the fused epilogue of a Linear→ReLU pair.
func AddRowBiasReLU(x, bias *Node) *Node {
	n, d := x.Val.Dim(0), x.Val.Dim(1)
	if bias.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: AddRowBiasReLU dims %v + %v", x.Val.Shape(), bias.Val.Shape()))
	}
	val := tensor.Get(x.Val.Shape()...)
	tensor.AddRowBiasReLUInto(val.Data, x.Val.Data, bias.Val.Data, n, d)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		if x.requiresGrad {
			tensor.ReLUMaskAddInto(x.ensureGrad().Data, out.Grad.Data, val.Data)
		}
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data[:d]
			for r := 0; r < n; r++ {
				dy := out.Grad.Data[r*d : (r+1)*d]
				y := val.Data[r*d : (r+1)*d][:len(dy)]
				for j := range dy {
					if y[j] > 0 {
						bg[j] += dy[j]
					}
				}
			}
		}
	}
	return out
}

// AddChanBiasReLU computes relu(x + bias[ch]) for x [N, C, H, W] and bias
// [C] as a single node — the fused epilogue of a biased Conv2d→ReLU pair.
func AddChanBiasReLU(x, bias *Node) *Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || bias.Val.Numel() != sh[1] {
		panic(fmt.Sprintf("autodiff: AddChanBiasReLU dims %v + %v", sh, bias.Val.Shape()))
	}
	n, c, hw := sh[0], sh[1], sh[2]*sh[3]
	val := tensor.Get(sh...)
	tensor.AddChanBiasReLUInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		if x.requiresGrad {
			tensor.ReLUMaskAddInto(x.ensureGrad().Data, out.Grad.Data, val.Data)
		}
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * hw
					dy := out.Grad.Data[base : base+hw]
					y := val.Data[base : base+hw][:len(dy)]
					var s float32
					for i := range dy {
						if y[i] > 0 {
							s += dy[i]
						}
					}
					bg[ch] += s
				}
			}
		}
	}
	return out
}

// AddRowBiasTanh computes tanh(x + bias) for x [N, D] and bias [D] as a
// single node — the fused epilogue of a Linear→Tanh pair. Unlike the ReLU
// epilogues no mask is stored AND nothing is recomputed: the tanh gradient
// is exactly dy·(1−y²) from the fused output.
func AddRowBiasTanh(x, bias *Node) *Node {
	n, d := x.Val.Dim(0), x.Val.Dim(1)
	if bias.Val.Numel() != d {
		panic(fmt.Sprintf("autodiff: AddRowBiasTanh dims %v + %v", x.Val.Shape(), bias.Val.Shape()))
	}
	val := tensor.Get(x.Val.Shape()...)
	tensor.AddRowBiasTanhInto(val.Data, x.Val.Data, bias.Val.Data, n, d)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		// Stage dpre = dy·(1−y²) once; both gradients read it.
		dpre := tensor.Get(n, d)
		tensor.TanhGradInto(dpre.Data, out.Grad.Data, val.Data)
		if x.requiresGrad {
			tensor.AddRawInto(x.ensureGrad().Data, dpre.Data)
		}
		if bias.requiresGrad {
			tensor.ColSumAddInto(bias.ensureGrad().Data, dpre.Data, n, d)
		}
		tensor.Put(dpre)
	}
	return out
}

// AddChanBiasSigmoid computes sigmoid(x + bias[ch]) for x [N, C, H, W] and
// bias [C] as a single node — the fused epilogue of a biased
// Conv2d→Sigmoid pair (spatial attention gates). The gradient is
// reconstructed from the output: dpre = dy·y·(1−y).
func AddChanBiasSigmoid(x, bias *Node) *Node {
	sh := x.Val.Shape()
	if len(sh) != 4 || bias.Val.Numel() != sh[1] {
		panic(fmt.Sprintf("autodiff: AddChanBiasSigmoid dims %v + %v", sh, bias.Val.Shape()))
	}
	n, c, hw := sh[0], sh[1], sh[2]*sh[3]
	val := tensor.Get(sh...)
	tensor.AddChanBiasSigmoidInto(val.Data, x.Val.Data, bias.Val.Data, n, c, hw)
	out := newPooledNode(val, []*Node{x, bias}, nil)
	out.backward = func() {
		// Stage dpre = dy·y·(1−y) once; both gradients read it.
		dpre := tensor.Get(sh...)
		tensor.SigmoidGradInto(dpre.Data, out.Grad.Data, val.Data)
		if x.requiresGrad {
			tensor.AddRawInto(x.ensureGrad().Data, dpre.Data)
		}
		if bias.requiresGrad {
			bg := bias.ensureGrad().Data
			for b := 0; b < n; b++ {
				for ch := 0; ch < c; ch++ {
					base := (b*c + ch) * hw
					row := dpre.Data[base : base+hw]
					var s float32
					for _, v := range row {
						s += v
					}
					bg[ch] += s
				}
			}
		}
		tensor.Put(dpre)
	}
	return out
}

// LinearReLU computes relu(x·W + b) for x [N, In], w [In, Out], b [Out] as
// one node: the matmul writes straight into the output buffer and the
// bias+ReLU epilogue runs in place over it. The backward stages the
// pre-activation gradient (dy masked by y > 0) in one pooled buffer shared
// by the bias, weight, and input gradients.
func LinearReLU(x, w, b *Node) *Node {
	n, dIn := x.Val.Dim(0), x.Val.Dim(1)
	dOut := w.Val.Dim(1)
	if b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: LinearReLU bias size %d, want %d", b.Val.Numel(), dOut))
	}
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasReLUInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		dpre := tensor.Get(n, dOut)
		tensor.ReLUMaskInto(dpre.Data, out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, dpre, n, dIn, dOut)
		tensor.Put(dpre)
	}
	return out
}

// Linear computes x·W + b for x [N, In], w [In, Out], b [Out] as one node:
// the matmul writes straight into the output buffer and the bias is added
// in place over it. With no activation the node's own gradient is the
// pre-activation gradient, so the backward hands out.Grad to the shared
// epilogue backward with no staging buffer. Bit-identical to
// AddRowBias(MatMul(x, w), b), values and gradients.
func Linear(x, w, b *Node) *Node {
	n, dIn := x.Val.Dim(0), x.Val.Dim(1)
	dOut := w.Val.Dim(1)
	if b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: Linear bias size %d, want %d", b.Val.Numel(), dOut))
	}
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		linearEpilogueBackward(x, w, b, out.Grad, n, dIn, dOut)
	}
	return out
}

// linearEpilogueBackward shares the dX/dW/dbias matmul backward of the
// fused Linear ops: dpre is the pre-activation gradient.
func linearEpilogueBackward(x, w, b *Node, dpre *tensor.Tensor, n, dIn, dOut int) {
	if b.requiresGrad {
		tensor.ColSumAddInto(b.ensureGrad().Data, dpre.Data, n, dOut)
	}
	if x.requiresGrad {
		tmp := tensor.Get(n, dIn)
		tensor.MatMulBTInto(tmp, dpre, w.Val) // dX = dPre·Wᵀ
		tensor.AddInto(x.ensureGrad(), tmp)
		tensor.Put(tmp)
	}
	if w.requiresGrad {
		tmp := tensor.Get(dIn, dOut)
		tensor.MatMulATInto(tmp, x.Val, dpre) // dW = Xᵀ·dPre
		tensor.AddInto(w.ensureGrad(), tmp)
		tensor.Put(tmp)
	}
}

// LinearTanh computes tanh(x·W + b) as one node: the matmul writes
// straight into the output buffer and the bias+tanh epilogue runs in place
// over it. The backward stages dpre = dy·(1−y²) in one pooled buffer
// shared by the bias, weight, and input gradients — no transcendental is
// re-evaluated.
func LinearTanh(x, w, b *Node) *Node {
	n, dIn := x.Val.Dim(0), x.Val.Dim(1)
	dOut := w.Val.Dim(1)
	if b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: LinearTanh bias size %d, want %d", b.Val.Numel(), dOut))
	}
	val := tensor.Get(n, dOut)
	tensor.MatMulInto(val, x.Val, w.Val)
	tensor.AddRowBiasTanhInto(val.Data, val.Data, b.Val.Data, n, dOut)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.backward = func() {
		dpre := tensor.Get(n, dOut)
		tensor.TanhGradInto(dpre.Data, out.Grad.Data, val.Data)
		linearEpilogueBackward(x, w, b, dpre, n, dIn, dOut)
		tensor.Put(dpre)
	}
	return out
}

// LinearGELU computes gelu(x·W + b) as one node. GELU's gradient needs the
// pre-activation, so the matmul+bias result and the inner tanh are both
// retained in pooled node scratch; the backward stages
// dpre = dy·gelu'(pre) from them without re-evaluating any transcendental.
func LinearGELU(x, w, b *Node) *Node {
	n, dIn := x.Val.Dim(0), x.Val.Dim(1)
	dOut := w.Val.Dim(1)
	if b.Val.Numel() != dOut {
		panic(fmt.Sprintf("autodiff: LinearGELU bias size %d, want %d", b.Val.Numel(), dOut))
	}
	pre := tensor.Get(n, dOut) // registered as node scratch below
	tensor.MatMulInto(pre, x.Val, w.Val)
	tensor.AddRowBiasInto(pre.Data, pre.Data, b.Val.Data, n, dOut)
	val := tensor.Get(n, dOut)
	t := tensor.Get(n, dOut) // inner tanh; registered as node scratch below
	tensor.GELUFwdInto(val.Data, t.Data, pre.Data)
	out := newPooledNode(val, []*Node{x, w, b}, nil)
	out.scratch = []*tensor.Tensor{pre, t}
	out.backward = func() {
		dpre := tensor.Get(n, dOut)
		tensor.GELUGradInto(dpre.Data, out.Grad.Data, pre.Data, t.Data)
		linearEpilogueBackward(x, w, b, dpre, n, dIn, dOut)
		tensor.Put(dpre)
	}
	return out
}

package autodiff

import (
	"testing"

	"amalgam/internal/tensor"
)

// linearStep returns one steady-state Linear training step (zero the
// parameter grads, forward, backward, Release) through op, which is the
// fused Linear or the unfused AddRowBias(MatMul) reference.
func linearStep(op func(x, w, b *Node) *Node) func() {
	rng := tensor.NewRNG(78)
	x := tensor.New(32, 64)
	w := tensor.New(64, 48)
	b := tensor.New(48)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 0.3)
	rng.FillNormal(b, 0, 0.3)
	xN, wN, bN := Leaf(x), Leaf(w), Leaf(b)
	return func() {
		xN.ZeroGrad()
		wN.ZeroGrad()
		bN.ZeroGrad()
		loss := Mean(op(xN, wN, bN))
		Backward(loss)
		Release(loss)
	}
}

func linearUnfused(x, w, b *Node) *Node { return AddRowBias(MatMul(x, w), b) }

// TestLinearStepAllocs pins the fused Linear step at the constant graph
// skeleton, and strictly below the unfused pair it replaces: one node and
// one backward closure fewer, with no pass-through gradient buffer.
func TestLinearStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; pool-hit alloc counts are meaningless")
	}
	fused := stepAllocs(t, linearStep(Linear))
	unfused := stepAllocs(t, linearStep(linearUnfused))
	t.Logf("allocs/step: fused %v, unfused %v", fused, unfused)
	if fused > graphAllocBudget {
		t.Fatalf("Linear fwd+bwd step allocates %v/op, budget %d", fused, graphAllocBudget)
	}
	if fused >= unfused {
		t.Fatalf("Linear step allocates %v/op, not below the unfused pair's %v/op", fused, unfused)
	}
}

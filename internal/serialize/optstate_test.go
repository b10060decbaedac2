package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

func testBuffers(names ...string) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(names))
	rng := tensor.NewRNG(11)
	for _, n := range names {
		v := tensor.New(3, 2)
		rng.FillNormal(v, 0, 1)
		out[n] = v
	}
	return out
}

func statesEqual(t *testing.T, got, want *optim.State) {
	t.Helper()
	if got.Kind != want.Kind || got.Step != want.Step || got.LR != want.LR {
		t.Fatalf("scalars mangled: got %q/%d/%v, want %q/%d/%v",
			got.Kind, got.Step, got.LR, want.Kind, want.Step, want.LR)
	}
	if len(got.Buffers) != len(want.Buffers) {
		t.Fatalf("buffer count %d, want %d", len(got.Buffers), len(want.Buffers))
	}
	for name, src := range want.Buffers {
		if !got.Buffers[name].Equal(src) {
			t.Fatalf("buffer %q not restored", name)
		}
	}
}

// TestOptStateAMO1Roundtrip pins the generalized wire encoding: an Adam
// state (kind, step counter, LR, prefixed moment buffers) survives
// encode/decode exactly.
func TestOptStateAMO1Roundtrip(t *testing.T) {
	in := &optim.State{
		Kind: optim.KindAdam, Step: 42, LR: 0.003,
		Buffers: testBuffers("m/w", "v/w", "m/b", "v/b"),
	}
	var buf bytes.Buffer
	if err := WriteOptState(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[:4]); got != optStateMagic {
		t.Fatalf("adam state wrote magic %#x, want AMO1", got)
	}
	out, err := ReadOptState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, out, in)
}

// TestOptStateSGDWritesAMO1 pins the single wire encoding: an SGD state
// is AMO1-framed like any other, and a bare state dict — the pre-AMO1
// encoding — is refused as a foreign format.
func TestOptStateSGDWritesAMO1(t *testing.T) {
	vel := testBuffers("w", "b")
	in := &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: vel}
	var buf bytes.Buffer
	if err := WriteOptState(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[:4]); got != optStateMagic {
		t.Fatalf("sgd state wrote magic %#x, want AMO1", got)
	}
	out, err := ReadOptState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, out, in)

	var bare bytes.Buffer
	if err := WriteStateDict(&bare, vel); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOptState(&bare); !errors.Is(err, ErrWrongFormat) {
		t.Fatalf("bare state dict decoded as optimiser state: %v", err)
	}
}

// TestOptStateRejectsForeignMagic pins format discrimination for the
// optimiser-state reader.
func TestOptStateRejectsForeignMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTensor(&buf, tensor.New(2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadOptState(&buf); !errors.Is(err, ErrWrongFormat) {
		t.Fatalf("tensor stream decoded as optimiser state: %v", err)
	}
}

// TestTrainCheckpointAMC3Roundtrip pins the generalized checkpoint
// section: an Adam job's checkpoint selects the AMC3 layout and restores
// kind, step, LR, buffers, and the RNG section.
func TestTrainCheckpointAMC3Roundtrip(t *testing.T) {
	state := testBuffers("w", "b")
	in := &TrainCheckpoint{
		Epoch: 3, Kind: "augmented-lm", State: state,
		OptState: &optim.State{
			Kind: optim.KindAdam, Step: 17, LR: 0.0005,
			Buffers: testBuffers("m/w", "v/w"),
		},
		RNG: map[string][]byte{"orig.drop": {1, 2, 3}},
	}
	var buf bytes.Buffer
	if err := WriteTrainCheckpoint(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf.Bytes()[:4]); got != ckptMagicV3 {
		t.Fatalf("adam checkpoint wrote magic %#x, want AMC3", got)
	}
	ck, err := ReadTrainCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 3 || ck.Kind != "augmented-lm" {
		t.Fatalf("epoch/kind mangled: %d %q", ck.Epoch, ck.Kind)
	}
	statesEqual(t, ck.OptState, in.OptState)
	if !bytes.Equal(ck.RNG["orig.drop"], []byte{1, 2, 3}) {
		t.Fatal("RNG section lost through the AMC3 layout")
	}
}

// TestTrainCheckpointWritesAMC3 pins the single checkpoint encoder: SGD
// and optimiser-free checkpoints are AMC3 too, the optimiser section is
// present exactly when OptState is non-nil, and SGD state keeps its LR.
func TestTrainCheckpointWritesAMC3(t *testing.T) {
	state := testBuffers("w", "b")
	for _, opt := range []*optim.State{
		nil,
		{Kind: optim.KindSGD, LR: 0.05, Buffers: testBuffers("w", "b")},
	} {
		var buf bytes.Buffer
		in := &TrainCheckpoint{Epoch: 4, Kind: "augmented-cv", State: state, OptState: opt}
		if err := WriteTrainCheckpoint(&buf, in); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(buf.Bytes()[:4]); got != ckptMagicV3 {
			t.Fatalf("checkpoint wrote magic %#x, want AMC3", got)
		}
		ck, err := ReadTrainCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if opt == nil {
			if ck.OptState != nil {
				t.Fatalf("nil optimiser state came back as %+v", ck.OptState)
			}
			continue
		}
		statesEqual(t, ck.OptState, opt)
	}
}

// amc2Fixture hand-builds an AMC2 checkpoint — the layout SGD-momentum
// jobs wrote before every checkpoint became AMC3 — optionally with the
// trailing RNG section.
func amc2Fixture(t testing.TB, state, vel map[string]*tensor.Tensor, rng map[string][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHeader(&buf, ckptMagicV2); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, uint32(5)); err != nil {
		t.Fatal(err)
	}
	if err := writeString(&buf, "augmented-cv"); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(1) // hasOpt
	if err := WriteStateDict(&buf, state); err != nil {
		t.Fatal(err)
	}
	if err := WriteStateDict(&buf, vel); err != nil {
		t.Fatal(err)
	}
	if rng != nil {
		buf.WriteByte(1) // RNG flag
		if err := WriteBytesDict(&buf, rng); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestTrainCheckpointReadsLegacyAMC2 pins backwards compatibility with
// AMC2 files: the SGD momentum buffers come back as an SGD state with
// Step 0, the RNG cursors load, and a file written before the trailing
// RNG section existed still loads.
func TestTrainCheckpointReadsLegacyAMC2(t *testing.T) {
	state := testBuffers("w", "b")
	vel := testBuffers("w", "b")
	rng := map[string][]byte{"orig.drop": {9, 8}}
	for _, withRNG := range []bool{true, false} {
		var want map[string][]byte
		if withRNG {
			want = rng
		}
		ck, err := ReadTrainCheckpoint(bytes.NewReader(amc2Fixture(t, state, vel, want)))
		if err != nil {
			t.Fatalf("legacy AMC2 checkpoint (rng=%v) no longer loads: %v", withRNG, err)
		}
		if ck.Epoch != 5 || ck.Kind != "augmented-cv" {
			t.Fatalf("epoch/kind mangled: %d %q", ck.Epoch, ck.Kind)
		}
		for name, src := range state {
			if !ck.State[name].Equal(src) {
				t.Fatalf("legacy entry %q not restored", name)
			}
		}
		statesEqual(t, ck.OptState, &optim.State{Kind: optim.KindSGD, Buffers: vel})
		if len(ck.RNG) != len(want) || !bytes.Equal(ck.RNG["orig.drop"], want["orig.drop"]) {
			t.Fatalf("RNG section (rng=%v): got %v, want %v", withRNG, ck.RNG, want)
		}
	}
}

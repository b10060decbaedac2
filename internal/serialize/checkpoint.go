package serialize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// SaveModel writes a model's full state dict (parameters plus batch-norm
// running statistics) to path atomically (write-then-rename), so a crash
// mid-save never leaves a truncated checkpoint.
func SaveModel(path string, m interface{ Params() []nn.Param }) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serialize: create checkpoint: %w", err)
	}
	dict := nn.StateDict(m)
	if err := WriteStateDict(f, dict); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serialize: write checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadModel reads a checkpoint into an already-constructed model with the
// same architecture. Missing or mis-shaped entries fail the load without
// partially mutating the model — values are staged first.
func LoadModel(path string, m interface{ Params() []nn.Param }) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serialize: open checkpoint: %w", err)
	}
	defer f.Close()
	dict, err := ReadStateDict(f)
	if err != nil {
		return fmt.Errorf("serialize: read checkpoint: %w", err)
	}
	// Validate everything before touching the model.
	for _, p := range m.Params() {
		src, ok := dict[p.Name]
		if !ok {
			return fmt.Errorf("serialize: checkpoint missing %q", p.Name)
		}
		if !src.SameShape(p.Node.Val) {
			return fmt.Errorf("serialize: checkpoint shape mismatch for %q", p.Name)
		}
	}
	return nn.LoadStateDict(m, dict)
}

// Training-checkpoint magics: a resumable snapshot pairing a state dict
// with the number of fully completed epochs. Trainers write one mid-job
// (every N epochs, and on cancellation) so an interrupted cloud job can
// be resumed from the last epoch boundary.
//
// AMC1 (legacy) is epoch + model state dict. AMC2 adds the job's spec
// kind (so a checkpoint can be matched against the job it is loaded
// into) and the optimiser state dict (SGD momentum buffers), which is
// what makes a resumed run with Momentum > 0 bit-identical to an
// uninterrupted one. AMC3 generalizes the optimiser section: it names
// the optimiser kind and carries scalar state (the step counter, the
// capture-time LR) ahead of the named buffers, so Adam's bias-correction
// counter survives a resume. The writer always produces AMC3; AMC1/AMC2
// files remain loadable, because checkpoint files outlive binaries.
const (
	ckptMagicV1 = 0x414d4331 // "AMC1"
	ckptMagicV2 = 0x414d4332 // "AMC2"
	ckptMagicV3 = 0x414d4333 // "AMC3"
)

// TrainCheckpoint is a resumable training snapshot.
type TrainCheckpoint struct {
	// Epoch counts fully completed epochs (the resume point).
	Epoch int
	// Kind is the job's wire spec kind ("augmented-cv", "augmented-text",
	// "augmented-lm", ...). Empty for legacy AMC1 files.
	Kind string
	// State is the full (augmented-model) state dict.
	State map[string]*tensor.Tensor
	// OptState holds the optimiser's resume state: named buffers (SGD
	// momentum, Adam moments) plus scalar counters. Nil when the run had
	// no optimiser state or the file predates AMC2. States decoded from
	// AMC2 files surface with Kind "sgd" and Step 0 — the only shape that
	// format could carry.
	OptState *optim.State
	// RNG holds per-layer random-stream cursors (dropout PCG state) keyed
	// by stream name ("orig.drop", "orig.block0.drop", ...). It is an
	// optional trailing section of AMC2 and AMC3 files: files written
	// before it existed still load (RNG nil). With it, a resumed
	// Dropout > 0 run replays masks from the interruption point — the
	// last piece of the bit-identical-resume contract.
	RNG map[string][]byte
}

// WriteTrainCheckpoint encodes an AMC3 training checkpoint: header,
// completed epoch count, spec kind, the optimiser-section flag (0 exactly
// when OptState is nil), the optimiser scalars, the model state dict, the
// optimiser buffer dict, and the trailing RNG section.
func WriteTrainCheckpoint(w io.Writer, ck *TrainCheckpoint) error {
	if ck.Epoch < 0 {
		return fmt.Errorf("serialize: checkpoint epoch must be ≥ 0, got %d", ck.Epoch)
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, ckptMagicV3); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ck.Epoch)); err != nil {
		return err
	}
	if err := writeString(bw, ck.Kind); err != nil {
		return err
	}
	hasOpt := uint8(0)
	if ck.OptState != nil {
		hasOpt = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, hasOpt); err != nil {
		return err
	}
	if hasOpt == 1 {
		if err := writeString(bw, ck.OptState.Kind); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(ck.OptState.Step)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(ck.OptState.LR)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := WriteStateDict(w, ck.State); err != nil {
		return err
	}
	if hasOpt == 1 {
		if err := WriteStateDict(w, ck.OptState.Buffers); err != nil {
			return err
		}
	}
	// Trailing RNG section: a flag byte then a bytes dict. Readers treat
	// EOF at the flag as a file written before the section existed.
	if len(ck.RNG) == 0 {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{1}); err != nil {
		return err
	}
	return WriteBytesDict(w, ck.RNG)
}

// ReadTrainCheckpoint decodes an AMC3, AMC2, or legacy AMC1 checkpoint
// (AMC1: Kind empty, OptState nil; AMC2: OptState surfaces as an SGD
// state with Step 0).
func ReadTrainCheckpoint(r io.Reader) (*TrainCheckpoint, error) {
	// One buffered reader for the whole stream: the dict sections are
	// decoded with the non-wrapping reader so the model dict cannot
	// read ahead into the optimiser dict.
	br := newReader(r)
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("serialize: read magic: %w", err)
	}
	if magic != ckptMagicV1 && magic != ckptMagicV2 && magic != ckptMagicV3 {
		return nil, fmt.Errorf("serialize: bad magic %#x, want %#x, %#x or %#x: %w",
			magic, ckptMagicV1, ckptMagicV2, ckptMagicV3, ErrWrongFormat)
	}
	var v uint16
	if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
		return nil, fmt.Errorf("serialize: read version: %w", err)
	}
	if v != version {
		return nil, fmt.Errorf("serialize: unsupported version %d: %w", v, ErrCorrupt)
	}
	ck := &TrainCheckpoint{}
	var e uint32
	if err := binary.Read(br, binary.LittleEndian, &e); err != nil {
		return nil, fmt.Errorf("serialize: read checkpoint epoch: %w", err)
	}
	ck.Epoch = int(e)
	hasOpt := uint8(0)
	var opt *optim.State
	if magic != ckptMagicV1 {
		kind, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("serialize: read checkpoint kind: %w", err)
		}
		ck.Kind = kind
		if err := binary.Read(br, binary.LittleEndian, &hasOpt); err != nil {
			return nil, fmt.Errorf("serialize: read checkpoint flags: %w", err)
		}
		if hasOpt > 1 {
			return nil, fmt.Errorf("serialize: bad optimiser-section flag %d: %w", hasOpt, ErrCorrupt)
		}
	}
	if hasOpt == 1 {
		// AMC2 could only ever hold SGD momentum buffers; AMC3 names the
		// kind and carries the scalars explicitly.
		opt = &optim.State{Kind: optim.KindSGD}
		if magic == ckptMagicV3 {
			kind, err := readString(br)
			if err != nil {
				return nil, fmt.Errorf("serialize: read optimiser kind: %w", err)
			}
			var step, lrBits uint64
			if err := binary.Read(br, binary.LittleEndian, &step); err != nil {
				return nil, fmt.Errorf("serialize: read optimiser step: %w", err)
			}
			if err := binary.Read(br, binary.LittleEndian, &lrBits); err != nil {
				return nil, fmt.Errorf("serialize: read optimiser lr: %w", err)
			}
			opt = &optim.State{Kind: kind, Step: int(step), LR: math.Float64frombits(lrBits)}
		}
	}
	state, err := readStateDictFrom(br)
	if err != nil {
		return nil, err
	}
	ck.State = state
	if hasOpt == 1 {
		buffers, err := readStateDictFrom(br)
		if err != nil {
			return nil, fmt.Errorf("serialize: optimiser state: %w", err)
		}
		opt.Buffers = buffers
		ck.OptState = opt
	}
	if magic != ckptMagicV1 {
		// Optional trailing RNG section; EOF here means the file predates
		// it (written before cursors were checkpointed) and is fine.
		flag, err := br.ReadByte()
		switch {
		case err == io.EOF:
			return ck, nil
		case err != nil:
			return nil, fmt.Errorf("serialize: read RNG flag: %w", err)
		case flag == 1:
			rng, err := readBytesDictFrom(br)
			if err != nil {
				return nil, fmt.Errorf("serialize: RNG state: %w", err)
			}
			ck.RNG = rng
		case flag != 0:
			return nil, fmt.Errorf("serialize: bad RNG flag %d: %w", flag, ErrCorrupt)
		}
	}
	return ck, nil
}

// SaveTrainCheckpoint writes a checkpoint to path atomically
// (write-then-rename), like SaveModel.
func SaveTrainCheckpoint(path string, ck *TrainCheckpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("serialize: create checkpoint: %w", err)
	}
	if err := WriteTrainCheckpoint(f, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serialize: write checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadTrainCheckpoint reads a checkpoint from path.
func LoadTrainCheckpoint(path string) (*TrainCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrainCheckpoint(f)
}

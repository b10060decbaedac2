package serialize

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"amalgam/internal/optim"
)

// optStateMagic ("AMO1") frames an optimiser state on the wire: kind,
// step counter, capture-time LR, then the named buffer dict.
const optStateMagic = 0x414d4f31 // "AMO1"

// WriteOptState encodes an optimiser state as an AMO1 stream. A nil
// state encodes as an empty one.
func WriteOptState(w io.Writer, st *optim.State) error {
	if st == nil {
		st = &optim.State{}
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, optStateMagic); err != nil {
		return err
	}
	if err := writeString(bw, st.Kind); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(st.Step)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(st.LR)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return WriteStateDict(w, st.Buffers)
}

// ReadOptState decodes an AMO1 stream. Any other magic fails with
// ErrWrongFormat.
func ReadOptState(r io.Reader) (*optim.State, error) {
	br := newReader(r)
	if err := readHeader(br, optStateMagic); err != nil {
		return nil, err
	}
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
	buffers, err := readStateDictFrom(br)
	if err != nil {
		return nil, err
	}
	return &optim.State{
		Kind: kind, Step: int(step), LR: math.Float64frombits(lrBits), Buffers: buffers,
	}, nil
}

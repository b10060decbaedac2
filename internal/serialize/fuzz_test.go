package serialize

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"amalgam/internal/optim"
)

// classified reports whether a decode error falls in the package's
// taxonomy: another format, a corrupt stream, or a truncated one.
func classified(err error) bool {
	return errors.Is(err, ErrWrongFormat) || errors.Is(err, ErrCorrupt) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// allocBytes reports the heap bytes f allocates: the least of three runs,
// so a goroutine allocating concurrently cannot inflate the figure.
func allocBytes(f func()) uint64 {
	var best uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < best {
			best = n
		}
	}
	return best
}

// readers gives two sources of data: an in-memory reader, whose Len
// the tensor decoder sizes reads by, and a plain stream, read in chunks.
func readers(data []byte) [2]func() io.Reader {
	return [2]func() io.Reader{
		func() io.Reader { return bytes.NewReader(data) },
		func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} },
	}
}

// allocBound is the most a decoder may allocate for n input bytes: a
// fixed allowance (buffered reader, one read chunk and its decoded
// floats, one maximal name) plus a per-byte factor covering map entries
// and tensor headers of the smallest well-formed dict entries.
func allocBound(n int) uint64 { return 64*uint64(n) + 512<<10 }

// forgedTensorDict is a state dict whose single entry claims a 2^31-
// element tensor but carries four bytes of it.
func forgedTensorDict() []byte {
	var b bytes.Buffer
	_ = writeHeader(&b, dictMagic)
	b.Write([]byte{1, 0, 0, 0})                   // one entry
	b.Write([]byte{1, 0, 'w'})                    // name "w"
	b.Write([]byte{2, 0, 0, 1, 0, 0, 0, 0x80, 0}) // rank 2: 65536 × 32768
	b.Write([]byte{0, 0, 0x80, 0x3f})             // one float
	return b.Bytes()
}

func FuzzReadTrainCheckpoint(f *testing.F) {
	state := testBuffers("w", "b")
	vel := testBuffers("w", "b")
	rng := map[string][]byte{"orig.drop": {9, 8, 7}}

	// AMC1, with and without trailing bytes where later formats put the
	// RNG section (AMC1 readers never read past the state dict).
	var amc1 bytes.Buffer
	_ = writeHeader(&amc1, ckptMagicV1)
	amc1.Write([]byte{5, 0, 0, 0})
	_ = WriteStateDict(&amc1, state)
	f.Add(amc1.Bytes())
	var rngTail bytes.Buffer
	rngTail.WriteByte(1)
	_ = WriteBytesDict(&rngTail, rng)
	f.Add(append(bytes.Clone(amc1.Bytes()), rngTail.Bytes()...))

	// AMC2, with and without the RNG section.
	f.Add(amc2Fixture(f, state, vel, rng))
	f.Add(amc2Fixture(f, state, vel, nil))

	// AMC3 (the writer's only layout), with and without the RNG section,
	// with and without an optimiser section.
	for _, ck := range []*TrainCheckpoint{
		{Epoch: 3, Kind: "augmented-lm", State: state, RNG: rng,
			OptState: &optim.State{Kind: optim.KindAdam, Step: 17, LR: 0.001, Buffers: vel}},
		{Epoch: 3, Kind: "augmented-lm", State: state,
			OptState: &optim.State{Kind: optim.KindSGD, LR: 0.05, Buffers: vel}},
		{Epoch: 1, Kind: "augmented-cv", State: state},
	} {
		var b bytes.Buffer
		if err := WriteTrainCheckpoint(&b, ck); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2]) // truncated
	}

	var dict bytes.Buffer
	_ = WriteStateDict(&dict, state)
	f.Add(dict.Bytes()) // a bare state dict is another format
	var forged bytes.Buffer
	_ = writeHeader(&forged, ckptMagicV1)
	forged.Write([]byte{0, 0, 0, 0})
	forged.Write(forgedTensorDict())
	f.Add(forged.Bytes())
	f.Add([]byte{})
	f.Add([]byte("AMC3 but not really"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var errs [2]error
		for i, src := range readers(data) {
			if n := allocBytes(func() { _, errs[i] = ReadTrainCheckpoint(src()) }); n > allocBound(len(data)) {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
			}
			if errs[i] != nil && !classified(errs[i]) {
				t.Fatalf("unclassified checkpoint error: %v", errs[i])
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("in-memory and streamed decodes disagree: %v vs %v", errs[0], errs[1])
		}
	})
}

func FuzzReadOptState(f *testing.F) {
	vel := testBuffers("w", "b")
	for _, st := range []*optim.State{
		{Kind: optim.KindAdam, Step: 42, LR: 0.003, Buffers: testBuffers("m/w", "v/w")},
		{Kind: optim.KindSGD, LR: 0.05, Buffers: vel},
		{Kind: optim.KindSGD},
	} {
		var b bytes.Buffer
		if err := WriteOptState(&b, st); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()-3]) // truncated
	}
	var bare bytes.Buffer
	_ = WriteStateDict(&bare, vel)
	f.Add(bare.Bytes()) // the pre-AMO1 bare dict: must be refused
	var forged bytes.Buffer
	_ = writeHeader(&forged, optStateMagic)
	forged.Write([]byte{3, 0, 's', 'g', 'd'})
	forged.Write(make([]byte, 16)) // step, LR
	forged.Write(forgedTensorDict())
	f.Add(forged.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x4f, 0x4d, 0x41, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		var errs [2]error
		for i, src := range readers(data) {
			if n := allocBytes(func() { _, errs[i] = ReadOptState(src()) }); n > allocBound(len(data)) {
				t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
			}
			if errs[i] != nil && !classified(errs[i]) {
				t.Fatalf("unclassified optimiser-state error: %v", errs[i])
			}
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("in-memory and streamed decodes disagree: %v vs %v", errs[0], errs[1])
		}
		if errs[0] == nil && bytes.HasPrefix(data, bare.Bytes()[:4]) {
			t.Fatal("a bare state dict decoded as optimiser state")
		}
	})
}

package cloudsim

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/models"
	"amalgam/internal/serve"
	"amalgam/internal/tensor"
)

// startInferServer brings up a wire server in front of a serve backend
// with one model per modality registered, returning its address and a
// cleanup.
func startInferServer(t *testing.T) (string, *models.TextClassifier, *models.TransformerLM, func()) {
	t.Helper()
	txt := models.NewTextClassifier(tensor.NewRNG(11), 50, 8, 3)
	lm := models.NewTransformerLM(tensor.NewRNG(13), models.TransformerLMConfig{
		Vocab: 40, D: 8, Heads: 2, FF: 16, Layers: 1, MaxT: 10, Dropout: 0,
	})
	backend := serve.New(serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond, Workers: 2})
	if err := backend.RegisterText("txt", txt, serve.TextConfig{Vocab: 50, SplitTail: txt.ForwardPooled, SplitDim: txt.EmbedDim}); err != nil {
		t.Fatal(err)
	}
	if err := backend.RegisterLM("lm", lm, serve.LMConfig{MaxContext: 10, Vocab: 40, SplitTail: lm.ForwardEmbedded, SplitDim: lm.D}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServerConfig(l, ServerConfig{Infer: backend})
	return l.Addr().String(), txt, lm, func() {
		l.Close()
		server.Wait()
		backend.Close()
	}
}

// TestInferRoundTrip pins the wire contract: predictions served over
// msgInfer frames — full-input and split, text and LM — are bit-identical
// to a local forward through the same model.
func TestInferRoundTrip(t *testing.T) {
	addr, txt, lm, stop := startInferServer(t)
	defer stop()

	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	samples := [][]int{{3, 14, 15}, {9, 26, 5, 35, 8}, {2, 7}}
	got, err := conn.PredictText("txt", samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		out := txt.ForwardIDs([][]int{s})
		wantClass := tensor.ArgmaxRows(out.Val)[0]
		wantLogits := append([]float32(nil), out.Val.Data...)
		autodiff.Release(out)
		if got[i].Class != wantClass {
			t.Errorf("sample %d: wire class %d, local %d", i, got[i].Class, wantClass)
		}
		for j, v := range wantLogits {
			if got[i].Logits[j] != v {
				t.Fatalf("sample %d logit %d: wire %v, local %v", i, j, got[i].Logits[j], v)
			}
		}
	}

	// Split inference: pooled embeddings computed client-side must score
	// bit-identically to the full-token path.
	pooled := make([][]float32, len(samples))
	for i, s := range samples {
		node := txt.Embed.LookupMean([][]int{s})
		pooled[i] = append([]float32(nil), node.Val.Data...)
		autodiff.Release(node)
	}
	gotSplit, err := conn.PredictTextSplit("txt", pooled)
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if gotSplit[i].Class != got[i].Class {
			t.Errorf("sample %d: split class %d, full class %d", i, gotSplit[i].Class, got[i].Class)
		}
		for j := range got[i].Logits {
			if gotSplit[i].Logits[j] != got[i].Logits[j] {
				t.Fatalf("sample %d logit %d: split %v, full %v", i, j, gotSplit[i].Logits[j], got[i].Logits[j])
			}
		}
	}

	// LM next-token scoring, full and split.
	ctxs := [][]int{{1, 8, 30}, {5, 2, 2, 17, 33}}
	gotLM, err := conn.PredictLM("lm", ctxs, 3)
	if err != nil {
		t.Fatal(err)
	}
	acts := make([][]float32, len(ctxs))
	lens := make([]int, len(ctxs))
	for i, c := range ctxs {
		h := lm.EmbedIDs([][]int{c})
		acts[i] = append([]float32(nil), h.Val.Data...)
		autodiff.Release(h)
		lens[i] = len(c)
	}
	gotLMSplit, err := conn.PredictLMSplit("lm", acts, lens, lm.D, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ctxs {
		if len(gotLM[i].Tokens) != 3 {
			t.Fatalf("context %d: want 3 tokens, got %d", i, len(gotLM[i].Tokens))
		}
		for j := range gotLM[i].Tokens {
			if gotLM[i].Tokens[j] != gotLMSplit[i].Tokens[j] || gotLM[i].LogProbs[j] != gotLMSplit[i].LogProbs[j] {
				t.Fatalf("context %d entry %d: full (%d, %v) vs split (%d, %v)",
					i, j, gotLM[i].Tokens[j], gotLM[i].LogProbs[j], gotLMSplit[i].Tokens[j], gotLMSplit[i].LogProbs[j])
			}
		}
	}
}

// TestInferRefusedWithoutBackend pins that a pure training server (no
// Infer backend configured) refuses infer frames with ErrBadRequest
// instead of crashing or hanging.
func TestInferRefusedWithoutBackend(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()
	conn, err := DialInfer(context.Background(), l.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.PredictText("txt", [][]int{{1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("want ErrBadRequest, got %v", err)
	}
}

// TestInferErrorsCrossWireTyped pins that backend failures keep their
// sentinel class across the wire: an unknown model and a malformed input
// both surface as ErrBadRequest via the coded error frame, and the
// connection keeps serving afterwards (error frames do not poison it).
func TestInferErrorsCrossWireTyped(t *testing.T) {
	addr, _, _, stop := startInferServer(t)
	defer stop()

	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.PredictText("nope", [][]int{{1}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown model: want ErrBadRequest, got %v", err)
	}
	// Out-of-vocab token: refused at admission, batch untouched.
	conn2, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.PredictText("txt", [][]int{{49, 50}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-vocab: want ErrBadRequest, got %v", err)
	}
	got, err := conn2.PredictText("txt", [][]int{{49}})
	if err != nil || len(got) != 1 {
		t.Fatalf("connection should keep serving after an in-band error: %v", err)
	}
}

// TestInferForgedLensRejected pins the length check on both ragged-body
// paths: lengths whose sum overflows int into matching a one-unit body
// are refused in-band as ErrBadRequest — not a panic in a fan-out
// goroutine, which would kill the whole server — and the same
// connection then serves a valid prediction.
func TestInferForgedLensRejected(t *testing.T) {
	addr, _, _, stop := startInferServer(t)
	defer stop()

	conn, err := DialInfer(context.Background(), addr, NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	forged := []int{3, math.MaxInt, math.MaxInt}

	oneFloat, err := tensorBody([][]float32{{0.5}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	oneToken, _, err := intBody([][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		h    inferHeader
		body []byte
	}{
		{"split", inferHeader{Model: "lm", Modality: "lm", Split: true, Lens: forged, Dim: 1, TopK: 1}, oneFloat},
		{"full", inferHeader{Model: "lm", Modality: "lm", Lens: forged, TopK: 1}, oneToken},
	} {
		if _, err := conn.roundTrip(c.h, c.body); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("%s path with forged lens: want ErrBadRequest, got %v", c.name, err)
		}
		got, err := conn.PredictLM("lm", [][]int{{1, 8, 30}}, 2)
		if err != nil || len(got) != 1 || len(got[0].Tokens) != 2 {
			t.Fatalf("%s path: connection should keep serving after the reject: %v", c.name, err)
		}
	}
}

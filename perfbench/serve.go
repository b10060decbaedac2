package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/tensor"
)

// Serving load: 2 PredictClient connections (at most nproc), an open loop
// at a fixed rate, then a closed loop with both connections back-to-back.
const (
	serveConns    = 2
	serveRate     = 200 // requests per second in the open loop
	serveTopK     = 5
	servePool     = 128 // distinct requests of each kind
	serveSetups   = 10  // set-ups per run; setup_s is their median
	serveVerify   = 16  // per kind, checked before the timed phases
	openShare     = 0.5 // of --seconds; the closed loop gets the rest
	serveTail     = 0.99
	tailWindow    = 1000 // open-loop requests per tail window: 10 beyond p99
	augModelName  = "aug"
	origModelName = "orig"
)

// timedLM wraps the augmented model's ForwardIDs, the forward pass every
// augmented-window batch runs, and counts the batches and their time.
type timedLM struct {
	amalgam.TextPredictor
	batches, rows, nanos atomic.Int64
}

func (t *timedLM) ForwardIDs(ids [][]int) *autodiff.Node {
	t0 := time.Now()
	out := t.TextPredictor.ForwardIDs(ids)
	t.nanos.Add(int64(time.Since(t0)))
	t.batches.Add(1)
	t.rows.Add(int64(len(ids)))
	return out
}

type forwardStats struct{ batches, rows, nanos int64 }

func (t *timedLM) stats() forwardStats {
	return forwardStats{t.batches.Load(), t.rows.Load(), t.nanos.Load()}
}

// serveStack is one set-up of the serving side plus its clients.
type serveStack struct {
	job     *amalgam.LMJob
	orig    *amalgam.TransformerLM
	ps      *amalgam.PredictServer
	srv     *cloudsim.Server
	cl      *countingListener // nil when untraced
	traced  *timedLM          // nil when untraced
	clients []*amalgam.PredictClient

	setup, obfuscate, extract time.Duration
}

// newServeStack builds, obfuscates and extracts the LM, registers the
// still-obfuscated model and the extracted original on a default-config
// PredictServer behind a cloudsim server, and dials every client with a
// first prediction. Everything it does counts as set-up.
func newServeStack(s seeds, stream *amalgam.TokenStream, conns int, trace bool) (*serveStack, error) {
	t0 := time.Now()
	j, err := newLMJob(s, stream)
	if err != nil {
		return nil, err
	}
	st := &serveStack{job: j.job, obfuscate: j.obfuscate}
	t1 := time.Now()
	st.orig, err = j.job.ExtractLM(s.model)
	if err != nil {
		return nil, fmt.Errorf("ExtractLM: %w", err)
	}
	st.extract = time.Since(t1)
	st.ps = amalgam.NewPredictServer(amalgam.PredictServerConfig{})
	var aug amalgam.TextPredictor = j.job.Augmented
	if trace {
		st.traced = &timedLM{TextPredictor: aug}
		aug = st.traced
		// The plain model under a second name gives the untraced baseline
		// for the tracing overhead.
		if err := st.ps.RegisterLM(augModelName+"-plain", j.job.Augmented, j.job.Key.AugLen); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := st.ps.RegisterLM(augModelName, aug, j.job.Key.AugLen); err != nil {
		st.close()
		return nil, err
	}
	if err := st.ps.RegisterLM(origModelName, st.orig, 0); err != nil {
		st.close()
		return nil, err
	}
	l, err := listen()
	if err != nil {
		st.close()
		return nil, err
	}
	if trace {
		st.cl = newCountingListener(l)
		l = st.cl
	}
	st.srv = cloudsim.NewServerConfig(l, cloudsim.ServerConfig{Infer: st.ps.Backend()})
	for i := 0; i < conns; i++ {
		c := amalgam.NewPredictClient(l.Addr().String(), amalgam.RetryPolicy{})
		st.clients = append(st.clients, c)
		// The first prediction dials the connection.
		if _, err := c.PredictLM(context.Background(), amalgam.PredictLMRequest{
			Model: origModelName, Context: stream.Tokens[:lmBPTT-1], TopK: serveTopK,
		}); err != nil {
			st.close()
			return nil, fmt.Errorf("first dial: %w", err)
		}
	}
	st.setup = time.Since(t0)
	return st, nil
}

// close stops the clients, then the wire server, then the prediction
// server, waiting for each.
func (st *serveStack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	var err error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = st.srv.Shutdown(ctx)
	}
	st.ps.Close()
	return err
}

// request is one prediction of the seeded mix: an augmented window scored
// by the still-obfuscated model, or an original context embedded locally
// and scored by the extracted original's split path.
type request struct {
	split bool
	idx   int
}

// requestSet holds the request pool and the expected answers, computed by
// direct eval-mode forwards before serving starts.
type requestSet struct {
	augWindows [][]int
	contexts   [][]int
	wantAug    []amalgam.LMResult
	wantOrig   []amalgam.LMResult
}

func newRequestSet(st *serveStack) *requestSet {
	rs := &requestSet{}
	augWS := st.job.AugmentedStream.WindowSet(st.job.Key.AugLen)
	gather := st.job.Augmented.OrigGather
	for i := 0; i < servePool && i < augWS.N(); i++ {
		w := augWS.Windows[i]
		rs.augWindows = append(rs.augWindows, w)
		// The original window hidden in w; its first OrigLen-1 tokens are
		// the split path's context.
		orig := gather.Apply([][]int{w})[0]
		rs.contexts = append(rs.contexts, orig[:len(orig)-1])
	}
	for i := range rs.augWindows {
		rs.wantAug = append(rs.wantAug, directNextToken(st.job.Augmented, rs.augWindows[i]))
		rs.wantOrig = append(rs.wantOrig, directNextToken(st.orig, rs.contexts[i]))
	}
	return rs
}

// directNextToken scores one context with a direct eval-mode forward.
func directNextToken(m amalgam.TextPredictor, ids []int) amalgam.LMResult {
	m.SetTraining(false)
	out := m.ForwardIDs([][]int{ids})
	vocab := out.Val.Dim(1)
	rows := out.Val.Dim(0)
	toks, lps := topK(out.Val.Data[(rows-1)*vocab:rows*vocab], serveTopK)
	autodiff.Release(out)
	return amalgam.LMResult{Tokens: toks, LogProbs: lps}
}

// topK returns the k most probable ids (ties toward the lower id) with
// their log-softmax values, the log-sum-exp taken in float64.
func topK(logits []float32, k int) ([]int, []float32) {
	maxv := logits[0]
	for _, v := range logits {
		maxv = max(maxv, v)
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	lse := float64(maxv) + math.Log(sum)
	taken := make([]bool, len(logits))
	var toks []int
	var lps []float32
	for len(toks) < k {
		best := -1
		for i, v := range logits {
			if !taken[i] && (best < 0 || v > logits[best]) {
				best = i
			}
		}
		taken[best] = true
		toks = append(toks, best)
		lps = append(lps, float32(float64(logits[best])-lse))
	}
	return toks, lps
}

func sameResult(a, b amalgam.LMResult) bool {
	if len(a.Tokens) != len(b.Tokens) || len(a.LogProbs) != len(b.LogProbs) {
		return false
	}
	for i := range a.Tokens {
		if a.Tokens[i] != b.Tokens[i] || math.Float32bits(a.LogProbs[i]) != math.Float32bits(b.LogProbs[i]) {
			return false
		}
	}
	return true
}

// do sends one request on c and checks the answer; aug names the model
// the augmented windows go to.
func (rs *requestSet) do(st *serveStack, c *amalgam.PredictClient, r request, aug string) error {
	var got, want amalgam.LMResult
	var err error
	if r.split {
		ctx := rs.contexts[r.idx]
		h := st.orig.EmbedIDs([][]int{ctx})
		acts := append([]float32(nil), h.Val.Data...)
		autodiff.Release(h)
		got, err = c.PredictLM(context.Background(), amalgam.PredictLMRequest{
			Model: origModelName, Activations: acts, SeqLen: len(ctx), TopK: serveTopK,
		})
		want = rs.wantOrig[r.idx]
	} else {
		got, err = c.PredictLM(context.Background(), amalgam.PredictLMRequest{
			Model: aug, Context: rs.augWindows[r.idx], TopK: serveTopK,
		})
		want = rs.wantAug[r.idx]
	}
	if err != nil {
		return err
	}
	if !sameResult(got, want) {
		return fmt.Errorf("%+v served, direct forward gives %+v", got, want)
	}
	return nil
}

// pick draws the seeded request mix: half augmented windows, half split.
func pick(rng *tensor.RNG, n int) request {
	return request{split: rng.Float64() < 0.5, idx: rng.IntN(n)}
}

// phaseLog is what one timed phase observed.
type phaseLog struct {
	phase
	// latMs and lateMs are indexed by open-loop request, in due order.
	latMs, lateMs []float64
	augRTTMs      []float64
	// doneAt holds each closed-loop completion's offset from the start.
	doneAt   []time.Duration
	wall     time.Duration
	firstErr error
}

func (p *phaseLog) record(ok bool, err error) {
	p.attempted++
	if ok {
		p.succeeded++
		return
	}
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// openLoop sends requests on a fixed schedule at rate, round-robin over
// the clients. Each request is timed from its due time, so a stall counts
// against every request it delays; lateness is how far behind schedule
// the generator sent.
func openLoop(st *serveStack, rs *requestSet, rng *tensor.RNG, rate float64, d time.Duration, aug string) *phaseLog {
	n := int(rate * d.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = pick(rng, len(rs.augWindows))
	}
	conns := len(st.clients)
	logs := make([]phaseLog, conns)
	latMs, lateMs := make([]float64, n), make([]float64, n)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			for i := c; i < n; i += conns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				err := rs.do(st, st.clients[c], reqs[i], aug)
				done := time.Now()
				lg.record(err == nil, err)
				latMs[i] = ms(done.Sub(due))
				if err != nil {
					latMs[i] = math.Inf(1) // a failed request misses every limit
				}
				lateMs[i] = ms(sent.Sub(due))
				if !reqs[i].split {
					lg.augRTTMs = append(lg.augRTTMs, ms(done.Sub(sent)))
				}
			}
		}(c)
	}
	wg.Wait()
	out := merge("open-loop", logs)
	out.latMs, out.lateMs = latMs, lateMs
	out.wall = time.Since(start)
	return out
}

// closedLoop keeps every client busy back-to-back for d.
func closedLoop(st *serveStack, rs *requestSet, rng *tensor.RNG, d time.Duration, aug string, name string) *phaseLog {
	conns := len(st.clients)
	logs := make([]phaseLog, conns)
	rngs := make([]*tensor.RNG, conns)
	for c := range rngs {
		rngs[c] = rng.Split(uint64(c + 1))
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			for time.Now().Before(deadline) {
				err := rs.do(st, st.clients[c], pick(rngs[c], len(rs.augWindows)), aug)
				lg.record(err == nil, err)
				if err == nil {
					lg.doneAt = append(lg.doneAt, time.Since(start))
				}
			}
		}(c)
	}
	wg.Wait()
	out := merge(name, logs)
	out.wall = time.Since(start)
	return out
}

func merge(name string, logs []phaseLog) *phaseLog {
	out := &phaseLog{phase: phase{name: name}}
	for _, lg := range logs {
		out.attempted += lg.attempted
		out.succeeded += lg.succeeded
		out.failed += lg.failed
		out.augRTTMs = append(out.augRTTMs, lg.augRTTMs...)
		out.doneAt = append(out.doneAt, lg.doneAt...)
		if out.firstErr == nil {
			out.firstErr = lg.firstErr
		}
	}
	return out
}

// capacity is the closed loop's completion rate: completions per
// one-second window, median over the phase's full windows, so a burst of
// interference from outside the process moves one window, not the result.
func (p *phaseLog) capacity() (float64, int) {
	windows := int(p.wall / time.Second)
	if windows < 1 {
		return float64(p.succeeded) / p.wall.Seconds(), 1
	}
	counts := make([]float64, windows)
	for _, t := range p.doneAt {
		if w := int(t / time.Second); w < windows {
			counts[w]++
		}
	}
	return median(counts), windows
}

// windowedQuantile is the q-quantile of each run of window consecutive
// samples (the last run takes the remainder), median over the runs. With
// window chosen so each run leaves 10 samples beyond q, every run's tail is
// resolved on its own, and a burst of outside interference moves one run.
func windowedQuantile(xs []float64, q float64, window int) float64 {
	runs := len(xs) / window
	if runs < 2 {
		return quantile(xs, q)
	}
	var per []float64
	for r := 0; r < runs; r++ {
		end := (r + 1) * window
		if r == runs-1 {
			end = len(xs)
		}
		per = append(per, quantile(xs[r*window:end], q))
	}
	return median(per)
}

// runLMServe serves the still-obfuscated LM and the extracted original
// over TCP and drives them with an open loop, then a closed loop.
func runLMServe(cfg runConfig) (*result, error) {
	s := deriveSeeds(cfg.seed)
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "bench-lm", Tokens: lmTokens, Vocab: lmVocab, Seed: s.data})
	conns := min(serveConns, runtime.NumCPU())
	res := newResult()

	// Set up several times; keep the last stack.
	var setups []float64
	var st *serveStack
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		var err error
		if st, err = newServeStack(s, stream, conns, cfg.trace); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	res.phases = append(res.phases, phase{name: "setup-dial", attempted: serveSetups * conns, succeeded: serveSetups * conns})
	res.check("ExtractLM verifies bit-for-bit", true, "")
	workers := readMaxWorkers()
	rs := newRequestSet(st)
	err := serveLoad(cfg, st, rs, conns, res, setups, workers)
	if cerr := st.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	return res, err
}

func serveLoad(cfg runConfig, st *serveStack, rs *requestSet, conns int, res *result, setups []float64, workers int) error {
	rng := tensor.NewRNG(cfg.seed ^ 0x5e77e)

	// Verify before timing: served answers equal direct eval-mode
	// forwards, and the split path equals the full path on the extracted
	// original, over the wire.
	verify := phaseLog{phase: phase{name: "verify"}}
	for i := 0; i < serveVerify; i++ {
		idx := rng.IntN(len(rs.augWindows))
		c := st.clients[i%conns]
		err := rs.do(st, c, request{idx: idx}, augModelName)
		verify.record(err == nil, err)
		err = rs.do(st, c, request{split: true, idx: idx}, augModelName)
		verify.record(err == nil, err)
		full, err := c.PredictLM(context.Background(), amalgam.PredictLMRequest{
			Model: origModelName, Context: rs.contexts[idx], TopK: serveTopK,
		})
		if err == nil && !sameResult(full, rs.wantOrig[idx]) {
			err = fmt.Errorf("full path %+v, split path expects %+v", full, rs.wantOrig[idx])
		}
		verify.record(err == nil, err)
	}
	res.check("served predictions equal direct eval-mode forwards; split equals full path",
		verify.failed == 0, fmt.Sprintf("%d of %d differ: %v", verify.failed, verify.attempted, verify.firstErr))
	res.phases = append(res.phases, verify.phase)

	total := time.Duration(cfg.seconds * float64(time.Second))
	openDur := time.Duration(openShare * float64(total))
	closedDur := total - openDur

	var base *phaseLog
	if cfg.trace {
		base = closedLoop(st, rs, rng, closedDur, augModelName+"-plain", "closed-untraced")
		res.phases = append(res.phases, base.phase)
	}

	var w0 wireStats
	if st.cl != nil {
		w0 = st.cl.stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h0, mi0 := tensor.PoolStats()
	var f0 forwardStats
	if st.traced != nil {
		f0 = st.traced.stats()
	}
	open := openLoop(st, rs, rng, serveRate, openDur, augModelName)
	var fOpen forwardStats
	if st.traced != nil {
		fOpen = st.traced.stats()
	}
	closed := closedLoop(st, rs, rng, closedDur, augModelName, "closed-loop")
	h1, mi1 := tensor.PoolStats()
	runtime.ReadMemStats(&m1)
	res.phases = append(res.phases, open.phase, closed.phase)
	for _, p := range []*phaseLog{open, closed, base} {
		if p != nil && p.firstErr != nil {
			res.check(p.name+" predictions", false, p.firstErr.Error())
		}
	}
	if open.failed+closed.failed == 0 {
		res.check("every timed prediction equals the direct forward", true, "")
	}

	capacity, capWindows := closed.capacity()
	if !cfg.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		res.metrics["setup_s"] = metric{Value: median(setups), Samples: len(setups)}
		res.metrics["throughput_per_s"] = metric{Value: capacity, Samples: capWindows}
		res.metrics["latency_p50_ms"] = metric{Value: quantile(open.latMs, 0.5), Samples: len(open.latMs)}
		res.metrics["peak_rss_mb"] = metric{Value: rss, Samples: 1}
		return nil
	}

	requests := int64(open.attempted + closed.attempted)
	w := st.cl.stats().sub(w0)
	m := res.metrics
	m["tensor.pool_miss_ratio"] = metric{Value: ratio(mi1-mi0, h1-h0+mi1-mi0), Samples: int(h1 - h0 + mi1 - mi0)}
	m["process.gc_cycles"] = metric{Value: float64(m1.NumGC - m0.NumGC), Samples: 1}
	m["tensor.max_workers"] = metric{Value: float64(workers), Samples: 1}
	m["core.obfuscate_s"] = metric{Value: st.obfuscate.Seconds(), Samples: 1}
	m["core.extract_ms"] = metric{Value: ms(st.extract), Samples: 1}
	m["cloudsim.bytes_in"] = metric{Value: float64(w.bytesIn), Samples: int(requests)}
	m["cloudsim.bytes_out"] = metric{Value: float64(w.bytesOut), Samples: int(requests)}
	m["cloudsim.server_reads"] = metric{Value: float64(w.reads), Samples: int(requests)}
	m["cloudsim.server_writes"] = metric{Value: float64(w.writes), Samples: int(requests)}
	m["cloudsim.server_reads_per_request"] = metric{Value: ratio(w.reads, requests), Samples: int(requests)}
	m["cloudsim.server_writes_per_request"] = metric{Value: ratio(w.writes, requests), Samples: int(requests)}
	m["cloudsim.bytes_per_request"] = metric{Value: ratio(w.bytesIn+w.bytesOut, requests), Samples: int(requests)}

	f := st.traced.stats()
	m["serve.batches"] = metric{Value: float64(f.batches - f0.batches), Samples: int(f.batches - f0.batches)}
	m["serve.batch_size_mean"] = metric{Value: ratio(f.rows-f0.rows, f.batches-f0.batches), Samples: int(f.batches - f0.batches)}
	m["serve.forward_ms_per_batch"] = metric{Value: ratio(f.nanos-f0.nanos, f.batches-f0.batches) / 1e6, Samples: int(f.batches - f0.batches)}
	openFwdMs := ratio(fOpen.nanos-f0.nanos, fOpen.batches-f0.batches) / 1e6
	m["serve.non_forward_ms_per_request"] = metric{Value: mean(open.augRTTMs) - openFwdMs, Samples: len(open.augRTTMs)}
	m["loadgen.open_loop_p99_ms"] = metric{Value: windowedQuantile(open.latMs, serveTail, tailWindow), Samples: len(open.latMs)}
	res.tailNote(serveTail, min(len(open.latMs), tailWindow))
	m["loadgen.late_ms_p99"] = metric{Value: quantile(open.lateMs, 0.99), Samples: len(open.lateMs)}
	baseCapacity, _ := base.capacity()
	m["bench.trace_overhead_ratio"] = metric{Value: baseCapacity / capacity, Samples: capWindows}
	zeroMetrics(m)
	return nil
}

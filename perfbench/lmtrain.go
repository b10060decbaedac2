package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
)

// The paper's WikiText-2 job at reduced scale.
const (
	lmVocab    = 2000
	lmBPTT     = 20
	lmTokens   = 3000 // 150 windows: 2850 next-token targets per epoch
	lmEpochs   = 3
	lmBatch    = 16
	lmLR       = 0.1
	lmMomentum = 0.9
	amount     = 0.5 // augmentation amount α
	decoys     = 2
)

var lmModelCfg = amalgam.TransformerLMConfig{
	Vocab: lmVocab, D: 64, Heads: 2, FF: 64, Layers: 2, MaxT: 32, Dropout: 0.1,
}

var lmTrainCfg = amalgam.TrainConfig{Epochs: lmEpochs, BatchSize: lmBatch, LR: lmLR, Momentum: lmMomentum}

// seeds derives the independent input streams of a workload from its
// seed: the data and the model initialisation. The obfuscation seed, which
// also draws the decoy architectures and so the work per step, is fixed:
// every workload seed trains and serves the same amount of work.
type seeds struct{ data, model, obf uint64 }

const obfSeed = 0x0bf5

func deriveSeeds(seed uint64) seeds {
	return seeds{data: seed, model: seed*2654435761 + 1, obf: obfSeed}
}

// lmJob is one obfuscated LM job and the time its set-up took.
type lmJob struct {
	job       *amalgam.LMJob
	setup     time.Duration // model build + ObfuscateTokens
	obfuscate time.Duration
}

func newLMJob(s seeds, stream *amalgam.TokenStream) (*lmJob, error) {
	t0 := time.Now()
	model := amalgam.BuildLMModel(s.model, lmModelCfg)
	t1 := time.Now()
	job, err := amalgam.ObfuscateTokens(model, stream, lmBPTT, amalgam.Options{Amount: amount, SubNets: decoys, Seed: s.obf})
	if err != nil {
		return nil, fmt.Errorf("obfuscate: %w", err)
	}
	t2 := time.Now()
	return &lmJob{job: job, setup: t2.Sub(t0), obfuscate: t2.Sub(t1)}, nil
}

// samples counts the original next-token targets one epoch trains on.
func (j *lmJob) samples() int {
	return j.job.AugmentedStream.WindowSet(j.job.Key.AugLen).N() * (j.job.Key.OrigLen - 1)
}

// extract runs ExtractLMInto, which verifies the copy bit-for-bit.
func (j *lmJob) extract(s seeds) (time.Duration, error) {
	fresh := amalgam.BuildLMModel(s.model, lmModelCfg)
	t0 := time.Now()
	err := j.job.ExtractLMInto(fresh)
	return time.Since(t0), err
}

// trainTimes is one Train call: its wall time, the per-epoch losses, and
// the intervals between the progress reports the caller received.
type trainTimes struct {
	wall   time.Duration
	losses []float64
	epochs []time.Duration
}

func train(t amalgam.Trainer, job amalgam.TrainableJob, cfg amalgam.TrainConfig) (trainTimes, error) {
	var tt trainTimes
	start := time.Now()
	last := start
	stats, err := amalgam.Train(context.Background(), t, job, cfg, amalgam.WithProgress(func(amalgam.EpochStats) {
		now := time.Now()
		tt.epochs = append(tt.epochs, now.Sub(last))
		last = now
	}))
	tt.wall = time.Since(start)
	if err != nil {
		return tt, err
	}
	for _, st := range stats {
		tt.losses = append(tt.losses, st.Loss)
	}
	return tt, nil
}

// lossesFall checks that losses are finite and fall every epoch.
func lossesFall(losses []float64, epochs int) (bool, string) {
	if len(losses) != epochs {
		return false, fmt.Sprintf("%d epochs reported, want %d", len(losses), epochs)
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return false, fmt.Sprintf("epoch %d loss %v", i+1, l)
		}
		if i > 0 && l >= losses[i-1] {
			return false, fmt.Sprintf("epoch %d loss %v did not fall from %v", i+1, l, losses[i-1])
		}
	}
	return true, ""
}

// sameBits reports whether two loss curves are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// trainSeries accumulates the jobs of one untraced training run.
type trainSeries struct {
	setups, throughputs, epochMs []float64
	ref                          []float64 // first job's losses
	jobs, failed                 int
}

func (ts *trainSeries) metrics(res *result) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	n := len(ts.setups)
	res.metrics["setup_s"] = metric{Value: median(ts.setups), Samples: n}
	res.metrics["throughput_per_s"] = metric{Value: median(ts.throughputs), Samples: len(ts.throughputs)}
	res.metrics["latency_p50_ms"] = metric{Value: median(ts.epochMs), Samples: len(ts.epochMs)}
	res.metrics["peak_rss_mb"] = metric{Value: rss, Samples: 1}
	res.phases = append(res.phases, phase{name: "train", attempted: ts.jobs, succeeded: ts.jobs - ts.failed, failed: ts.failed})
	return nil
}

// runLMTrain trains the obfuscated transformer LM in-process with
// LocalTrainer, job after job until the run's time is up. With --trace 1
// it trains once untraced, then replays the same job step by step through
// cloudsim.TrainLoop with every layer call timed.
func runLMTrain(cfg runConfig) (*result, error) {
	s := deriveSeeds(cfg.seed)
	stream := amalgam.GenerateTokenStream(amalgam.TextConfig{Name: "bench-lm", Tokens: lmTokens, Vocab: lmVocab, Seed: s.data})
	res := newResult()
	if cfg.trace {
		return res, traceLMTrain(s, stream, res)
	}
	var ts trainSeries
	var extractErr error
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ts.jobs == 0 || time.Now().Before(deadline) {
		ts.jobs++
		j, err := newLMJob(s, stream)
		if err != nil {
			return nil, err
		}
		tt, err := train(amalgam.LocalTrainer{}, j.job, lmTrainCfg)
		if err != nil {
			ts.failed++
			res.check("train", false, err.Error())
			continue
		}
		ts.setups = append(ts.setups, j.setup.Seconds())
		ts.throughputs = append(ts.throughputs, float64(j.samples()*lmEpochs)/tt.wall.Seconds())
		for _, d := range tt.epochs {
			ts.epochMs = append(ts.epochMs, ms(d))
		}
		if ts.ref == nil {
			ts.ref = tt.losses
			ok, why := lossesFall(tt.losses, lmEpochs)
			res.check("losses finite and falling", ok, why)
		} else if !sameBits(ts.ref, tt.losses) {
			res.check("repeated job reproduces the losses bit-for-bit", false, fmt.Sprintf("%v vs %v", tt.losses, ts.ref))
		}
		if _, err := j.extract(s); err != nil && extractErr == nil {
			extractErr = err
		}
	}
	res.check("ExtractLMInto verifies bit-for-bit", extractErr == nil, fmt.Sprint(extractErr))
	return res, ts.metrics(res)
}

// traceLMTrain runs the job untraced, then replays it traced, and checks
// that the replay reproduces the untraced per-epoch losses bit-for-bit.
func traceLMTrain(s seeds, stream *amalgam.TokenStream, res *result) error {
	plain, err := newLMJob(s, stream)
	if err != nil {
		return err
	}
	tt, err := train(amalgam.LocalTrainer{}, plain.job, lmTrainCfg)
	if err != nil {
		return fmt.Errorf("untraced train: %w", err)
	}
	ok, why := lossesFall(tt.losses, lmEpochs)
	res.check("losses finite and falling", ok, why)
	extractDur, err := plain.extract(s)
	res.check("ExtractLMInto verifies bit-for-bit", err == nil, fmt.Sprint(err))

	traced, err := newLMJob(s, stream)
	if err != nil {
		return err
	}
	am := traced.job.Augmented
	ws := traced.job.AugmentedStream.WindowSet(traced.job.Key.AugLen)
	perWindow := traced.job.Key.OrigLen - 1
	var st stepTrace
	eng := st.engine(tracedJob{
		model: am,
		n:     ws.N(),
		batch: func(idx []int) (func() (total, orig *autodiff.Node), int) {
			wins := ws.Batch(idx)
			return func() (*autodiff.Node, *autodiff.Node) { return am.LossWindows(wins) }, len(wins) * perWindow
		},
		acc:        func(batch int) float64 { return cloudsim.LMAccuracy(am, ws, batch) },
		perplexity: true,
	})
	replay, err := replayTraced(eng, lmTrainCfg, s.obf)
	if err != nil {
		return err
	}
	res.check("traced replay reproduces the untraced losses bit-for-bit", sameBits(tt.losses, replay.losses),
		fmt.Sprintf("traced %v, untraced %v", replay.losses, tt.losses))

	st.metrics(res.metrics)
	res.metrics["process.gc_cycles"] = metric{Value: float64(replay.gcCycles), Samples: 1}
	res.metrics["core.obfuscate_s"] = metric{Value: traced.obfuscate.Seconds(), Samples: 1}
	res.metrics["core.extract_ms"] = metric{Value: ms(extractDur), Samples: 1}
	res.metrics["bench.trace_overhead_ratio"] = metric{Value: replay.wall.Seconds() / tt.wall.Seconds(), Samples: 1}
	zeroMetrics(res.metrics)
	res.phases = append(res.phases,
		phase{name: "train", attempted: 1, succeeded: 1},
		phase{name: "traced-replay", attempted: 1, succeeded: 1})
	return nil
}

// replayResult is one traced TrainLoop run.
type replayResult struct {
	wall     time.Duration
	losses   []float64
	epochSum float64 // sum of the loop's own EpochMetric.Seconds
	gcCycles uint32
}

// replayTraced drives cloudsim.TrainLoop over a traced engine with the
// hyper-parameters the public trainers derive from cfg (per-epoch seeded
// shuffle from the obfuscation seed).
func replayTraced(eng *cloudsim.Engine, cfg amalgam.TrainConfig, shuffleSeed uint64) (replayResult, error) {
	hyper := cloudsim.Hyper{
		Epochs: cfg.Epochs, BatchSize: cfg.BatchSize,
		LR: cfg.LR, Momentum: cfg.Momentum, WeightDecay: cfg.WeightDecay,
		Shuffle: true, ShuffleSeed: shuffleSeed,
	}
	var rr replayResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	resp, err := cloudsim.TrainLoop(context.Background(), eng, hyper, nil, nil)
	rr.wall = time.Since(start)
	if err != nil {
		return rr, fmt.Errorf("traced replay: %w", err)
	}
	runtime.ReadMemStats(&m1)
	rr.gcCycles = m1.NumGC - m0.NumGC
	for _, m := range resp.Metrics {
		rr.losses = append(rr.losses, m.Loss)
		rr.epochSum += m.Seconds
	}
	return rr, nil
}

// zeroMetrics reports 0 for every per-layer metric whose layer the
// workload did not exercise.
func zeroMetrics(m map[string]metric) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metric{}
		}
	}
}

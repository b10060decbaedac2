package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"amalgam"
	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/data"
	"amalgam/internal/nn"
	"amalgam/internal/tensor"
)

// An obfuscated LeNet on the CIFAR-10 stand-in, the paper's Fig. 1 loop.
const (
	cvModel    = "lenet"
	cvImages   = 128
	cvEpochs   = 2
	cvBatch    = 32
	cvLR       = 0.02
	cvMomentum = 0.9
)

var (
	cvShape    = amalgam.CVConfig{InC: 3, InH: 32, InW: 32, Classes: 10}
	cvTrainCfg = amalgam.TrainConfig{Epochs: cvEpochs, BatchSize: cvBatch, LR: cvLR, Momentum: cvMomentum}
)

// cvJob is one obfuscated CV job, the training server it runs against,
// and the time its set-up took.
type cvJob struct {
	job       *amalgam.Job
	srv       *cloudsim.Server
	addr      string
	setup     time.Duration // model build + Obfuscate + server start
	obfuscate time.Duration
}

// newCVJob builds and obfuscates the model.
func newCVJob(s seeds, ds *amalgam.ImageDataset) (*cvJob, error) {
	t0 := time.Now()
	model, err := amalgam.BuildCV(cvModel, s.model, cvShape)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	job, err := amalgam.Obfuscate(model, ds, amalgam.Options{Amount: amount, SubNets: decoys, Seed: s.obf, ModelName: cvModel})
	if err != nil {
		return nil, fmt.Errorf("obfuscate: %w", err)
	}
	t2 := time.Now()
	return &cvJob{job: job, setup: t2.Sub(t0), obfuscate: t2.Sub(t1)}, nil
}

// serve starts a default-config training server on l; its start-up
// counts as set-up.
func (j *cvJob) serve(l net.Listener) {
	t0 := time.Now()
	j.srv = cloudsim.NewServerConfig(l, cloudsim.ServerConfig{})
	j.addr = l.Addr().String()
	j.setup += time.Since(t0)
}

func (j *cvJob) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return j.srv.Shutdown(ctx)
}

func (j *cvJob) extract(s seeds) (time.Duration, error) {
	fresh, err := amalgam.BuildCV(cvModel, s.model, cvShape)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = j.job.ExtractInto(fresh)
	return time.Since(t0), err
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// runCVTrain trains the obfuscated LeNet with RemoteTrainer against an
// in-process cloudsim server over loopback TCP, job after job until the
// run's time is up. With --trace 1 it trains once untraced, once through
// cloudsim.TrainContext behind a counting listener, and once as a traced
// in-process replay while the server (and its worker slicing) is live.
func runCVTrain(cfg runConfig) (*result, error) {
	s := deriveSeeds(cfg.seed)
	ds := amalgam.SyntheticCIFAR10(cvImages, s.data)
	res := newResult()
	if cfg.trace {
		return res, traceCVTrain(s, ds, res)
	}
	var ts trainSeries
	var extractErr error
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for ts.jobs == 0 || time.Now().Before(deadline) {
		ts.jobs++
		j, err := newCVJob(s, ds)
		if err != nil {
			return nil, err
		}
		l, err := listen()
		if err != nil {
			return nil, err
		}
		j.serve(l)
		tt, err := train(amalgam.RemoteTrainer{Addr: j.addr}, j.job, cvTrainCfg)
		if cerr := j.close(); cerr != nil {
			return nil, fmt.Errorf("server shutdown: %w", cerr)
		}
		if err != nil {
			ts.failed++
			res.check("train", false, err.Error())
			continue
		}
		ts.setups = append(ts.setups, j.setup.Seconds())
		ts.throughputs = append(ts.throughputs, float64(cvImages*cvEpochs)/tt.wall.Seconds())
		for _, d := range tt.epochs {
			ts.epochMs = append(ts.epochMs, ms(d))
		}
		if ts.ref == nil {
			ts.ref = tt.losses
			ok, why := lossesFall(tt.losses, cvEpochs)
			res.check("losses finite and falling", ok, why)
		} else if !sameBits(ts.ref, tt.losses) {
			res.check("repeated job reproduces the losses bit-for-bit", false, fmt.Sprintf("%v vs %v", tt.losses, ts.ref))
		}
		if _, err := j.extract(s); err != nil && extractErr == nil {
			extractErr = err
		}
	}
	res.check("ExtractInto verifies bit-for-bit", extractErr == nil, fmt.Sprint(extractErr))
	return res, ts.metrics(res)
}

func traceCVTrain(s seeds, ds *amalgam.ImageDataset, res *result) (err error) {
	inner, err := listen()
	if err != nil {
		return err
	}
	cl := newCountingListener(inner)
	plain, err := newCVJob(s, ds)
	if err != nil {
		cl.Close()
		return err
	}
	plain.serve(cl)
	defer func() {
		if cerr := plain.close(); err == nil && cerr != nil {
			err = fmt.Errorf("server shutdown: %w", cerr)
		}
	}()

	// 1. Untraced: the public RemoteTrainer.
	tt, err := train(amalgam.RemoteTrainer{Addr: plain.addr}, plain.job, cvTrainCfg)
	if err != nil {
		return fmt.Errorf("untraced train: %w", err)
	}
	ok, why := lossesFall(tt.losses, cvEpochs)
	res.check("losses finite and falling", ok, why)
	extractDur, err := plain.extract(s)
	res.check("ExtractInto verifies bit-for-bit", err == nil, fmt.Sprint(err))

	// 2. The same job through cloudsim.TrainContext, counted on the wire.
	wired, err := newCVJob(s, ds)
	if err != nil {
		return err
	}
	w0 := cl.stats()
	var epochSecs float64
	var wireLosses []float64
	start := time.Now()
	_, err = cloudsim.TrainContext(context.Background(), plain.addr, cvRequest(wired.job, s), cloudsim.StreamHandlers{
		Progress: func(m cloudsim.EpochMetric) {
			epochSecs += m.Seconds
			wireLosses = append(wireLosses, m.Loss)
		},
	})
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("TrainContext: %w", err)
	}
	w := cl.stats().sub(w0)
	res.check("TrainContext reproduces the RemoteTrainer losses bit-for-bit", sameBits(tt.losses, wireLosses),
		fmt.Sprintf("wire %v, RemoteTrainer %v", wireLosses, tt.losses))

	// 3. Traced replay in-process, while the server's worker slicing is in
	// force, as it was for the remote job.
	traced, err := newCVJob(s, ds)
	if err != nil {
		return err
	}
	am, augDS := traced.job.Augmented, traced.job.AugmentedDataset
	var st stepTrace
	eng := st.engine(tracedJob{
		model: am,
		n:     augDS.N(),
		batch: func(idx []int) (func() (total, orig *autodiff.Node), int) {
			x, labels := augDS.Batch(idx)
			return func() (*autodiff.Node, *autodiff.Node) { return am.Loss(autodiff.Constant(x), labels) }, len(labels)
		},
		acc: func(batch int) float64 { return cvAccuracy(am, augDS, batch) },
	})
	replay, err := replayTraced(eng, cvTrainCfg, s.obf)
	if err != nil {
		return err
	}
	res.check("traced replay reproduces the untraced losses bit-for-bit", sameBits(tt.losses, replay.losses),
		fmt.Sprintf("traced %v, untraced %v", replay.losses, tt.losses))

	st.metrics(res.metrics)
	res.metrics["process.gc_cycles"] = metric{Value: float64(replay.gcCycles), Samples: 1}
	res.metrics["core.obfuscate_s"] = metric{Value: traced.obfuscate.Seconds(), Samples: 1}
	res.metrics["core.extract_ms"] = metric{Value: ms(extractDur), Samples: 1}
	res.metrics["cloudsim.bytes_in"] = metric{Value: float64(w.bytesIn), Samples: 1}
	res.metrics["cloudsim.bytes_out"] = metric{Value: float64(w.bytesOut), Samples: 1}
	res.metrics["cloudsim.server_reads"] = metric{Value: float64(w.reads), Samples: 1}
	res.metrics["cloudsim.server_writes"] = metric{Value: float64(w.writes), Samples: 1}
	res.metrics["cloudsim.upload_s"] = metric{Value: w.lastRead.Sub(start).Seconds(), Samples: 1}
	res.metrics["cloudsim.server_epoch_s"] = metric{Value: epochSecs, Samples: len(wireLosses)}
	res.metrics["cloudsim.remote_overhead_s"] = metric{Value: wall.Seconds() - epochSecs, Samples: 1}
	// The replay and the server ran the same TrainLoop on the same worker
	// count; the ratio of their loop times is the tracing overhead.
	res.metrics["bench.trace_overhead_ratio"] = metric{Value: replay.epochSum / epochSecs, Samples: 1}
	zeroMetrics(res.metrics)
	res.phases = append(res.phases,
		phase{name: "train", attempted: 1, succeeded: 1},
		phase{name: "train-wire", attempted: 1, succeeded: 1},
		phase{name: "traced-replay", attempted: 1, succeeded: 1})
	return nil
}

// cvRequest builds the wire request RemoteTrainer sends for job: the
// augmented spec, the augmented dataset, and the client-side initial
// state, under the hyper-parameters the public trainers derive.
func cvRequest(job *amalgam.Job, s seeds) *cloudsim.TrainRequest {
	return &cloudsim.TrainRequest{
		Spec: cloudsim.ModelSpec{
			Kind: "augmented-cv", Model: cvModel,
			InC: cvShape.InC, OrigH: cvShape.InH, OrigW: cvShape.InW, Classes: cvShape.Classes,
			AugAmount: amount, SubNets: len(job.Augmented.Decoys), AugSeed: s.obf,
			KeyKeep: job.Key.Keep, AugH: job.Key.AugH, AugW: job.Key.AugW,
		},
		Hyper: cloudsim.Hyper{
			Epochs: cvEpochs, BatchSize: cvBatch, LR: cvLR, Momentum: cvMomentum,
			Shuffle: true, ShuffleSeed: s.obf, Stream: true,
		},
		Images:    job.AugmentedDataset.Images,
		Labels:    job.AugmentedDataset.Labels,
		InitState: nn.StateDict(job.Augmented),
	}
}

// cvAccuracy is the training-set accuracy pass the public CV job runs
// each epoch: eval mode, every forward graph released.
func cvAccuracy(m amalgam.Classifier, ds *amalgam.ImageDataset, batch int) float64 {
	prev := nn.TrainingMode(m)
	m.SetTraining(false)
	defer m.SetTraining(prev)
	correct := 0
	for _, idx := range data.BatchIter(ds.N(), batch, nil) {
		x, labels := ds.Batch(idx)
		out := m.Forward(autodiff.Constant(x))
		for i, p := range tensor.ArgmaxRows(out.Val) {
			if p == labels[i] {
				correct++
			}
		}
		autodiff.Release(out)
	}
	return float64(correct) / float64(ds.N())
}

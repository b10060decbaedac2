package main

import (
	"runtime"
	"time"

	"amalgam/internal/autodiff"
	"amalgam/internal/cloudsim"
	"amalgam/internal/nn"
	"amalgam/internal/optim"
	"amalgam/internal/tensor"
)

// stepTrace replays training steps through the same public calls
// cloudsim.CVStep and cloudsim.LMStep make, timing each call into its
// layer. Memory counters are read at epoch boundaries only, so the step
// loop itself pays nothing but the clock reads.
type stepTrace struct {
	steps, epochs                                       int
	zero, forward, backward, optStep, release, trainAcc time.Duration

	poolGets, poolMisses int64
	allocBytes           uint64
	maxWorkers           int

	open           bool // inside an epoch's step loop
	hits0, misses0 int64
	alloc0         uint64
}

// tracedJob is one modality's step, split at the layer boundaries.
type tracedJob struct {
	model cloudsim.Trainable
	n     int
	// batch assembles the inputs for idx and returns the joint-loss
	// forward call plus the number of original samples it scores.
	batch func(idx []int) (forward func() (total, orig *autodiff.Node), count int)
	// acc is the per-epoch training-set accuracy pass.
	acc        func(batch int) float64
	perplexity bool
}

// engine builds the cloudsim.Engine that TrainLoop drives.
func (t *stepTrace) engine(j tracedJob) *cloudsim.Engine {
	return &cloudsim.Engine{
		Model: j.model,
		N:     j.n,
		Step: func(opt optim.Optimizer, idx []int) (float64, int) {
			if !t.open {
				t.beginEpoch()
			}
			forward, count := j.batch(idx)
			t0 := time.Now()
			nn.ZeroGrads(j.model)
			t1 := time.Now()
			total, orig := forward()
			t2 := time.Now()
			autodiff.Backward(total)
			t3 := time.Now()
			opt.Step()
			t4 := time.Now()
			l := float64(orig.Scalar()) * float64(count)
			autodiff.Release(total)
			t5 := time.Now()
			t.zero += t1.Sub(t0)
			t.forward += t2.Sub(t1)
			t.backward += t3.Sub(t2)
			t.optStep += t4.Sub(t3)
			t.release += t5.Sub(t4)
			t.steps++
			return l, count
		},
		TrainAcc: func(batch int) float64 {
			t.endEpoch()
			t0 := time.Now()
			a := j.acc(batch)
			t.trainAcc += time.Since(t0)
			t.epochs++
			return a
		},
		Perplexity: j.perplexity,
	}
}

func (t *stepTrace) beginEpoch() {
	t.open = true
	t.maxWorkers = readMaxWorkers()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.alloc0 = ms.TotalAlloc
	t.hits0, t.misses0 = tensor.PoolStats()
}

func (t *stepTrace) endEpoch() {
	hits, misses := tensor.PoolStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.open = false
	t.allocBytes += ms.TotalAlloc - t.alloc0
	t.poolGets += hits - t.hits0 + misses - t.misses0
	t.poolMisses += misses - t.misses0
}

// metrics reports the per-step and per-epoch layer times and counters.
func (t *stepTrace) metrics(m map[string]metric) {
	perStep := func(d time.Duration) metric {
		return metric{Value: ms(d) / float64(t.steps), Samples: t.steps}
	}
	m["nn.zero_grads_ms_per_step"] = perStep(t.zero)
	m["core.forward_ms_per_step"] = perStep(t.forward)
	m["autodiff.backward_ms_per_step"] = perStep(t.backward)
	m["optim.step_ms_per_step"] = perStep(t.optStep)
	m["autodiff.release_ms_per_step"] = perStep(t.release)
	m["cloudsim.train_acc_ms_per_epoch"] = metric{Value: ms(t.trainAcc) / float64(t.epochs), Samples: t.epochs}
	m["tensor.pool_gets_per_step"] = metric{Value: float64(t.poolGets) / float64(t.steps), Samples: t.steps}
	m["tensor.pool_miss_ratio"] = metric{Value: ratio(t.poolMisses, t.poolGets), Samples: int(t.poolGets)}
	m["process.alloc_bytes_per_step"] = metric{Value: float64(t.allocBytes) / float64(t.steps), Samples: t.steps}
	m["tensor.max_workers"] = metric{Value: float64(t.maxWorkers), Samples: t.epochs}
}

// readMaxWorkers reads the tensor kernels' worker count. The package
// exposes only the setter, which returns the previous value, so the value
// is swapped out and straight back. Call it only while no kernel runs.
func readMaxWorkers() int {
	n := tensor.SetMaxWorkers(1)
	tensor.SetMaxWorkers(n)
	return n
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

package main

import (
	"math"
	"sort"
)

// Workload names, as passed to --workload.
const (
	wlLMTrain = "lm-train-local"
	wlCVTrain = "cv-train-remote"
	wlLMServe = "lm-serve-tcp"
)

var workloadNames = []string{wlLMTrain, wlCVTrain, wlLMServe}

// metricDef describes one reported metric. End-to-end metrics carry the
// regression bound; per-layer metrics name the end-to-end metric and the
// workloads they are expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Means says what the metric measures on each workload kind.
	Means string
	// Moves names the end-to-end metric (and workloads) a per-layer metric
	// should move.
	Moves string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, measured with tracing off. The open-loop p99
// is not among them: on a shared virtual machine the hypervisor's
// scheduling sets it (it moved 5-20 ms between runs of the same code), so
// the traced run reports it as loadgen.open_loop_p99_ms, without a bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Means: "median time in program calls before the first timed operation: model build, Obfuscate/ObfuscateTokens, ExtractLM + Register (serving), server start and first dial; synthetic data generation excluded"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Means: "training: original training samples x epochs / wall time of the Train call, median over jobs; serving: closed-loop completed predictions per 1 s window, median over windows"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Means: "training: median interval between the per-epoch progress reports the caller receives; serving: median open-loop latency, timed from each request's due time"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Means: "VmHWM of the workload's own process"},
}

// perLayer lists the traced run's metrics. A metric whose layer a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "core.forward_ms_per_step", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "autodiff.backward_ms_per_step", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "optim.step_ms_per_step", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "nn.zero_grads_ms_per_step", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "autodiff.release_ms_per_step", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "cloudsim.train_acc_ms_per_epoch", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-train-local and cv-train-remote"},
	{Name: "tensor.pool_gets_per_step", Unit: "count", Better: "lower",
		Moves: "throughput_per_s and peak_rss_mb on the training workloads"},
	{Name: "tensor.pool_miss_ratio", Unit: "ratio", Better: "lower",
		Moves: "throughput_per_s and peak_rss_mb on the training workloads; loadgen.open_loop_p99_ms on lm-serve-tcp, where it should stay about 0"},
	{Name: "process.alloc_bytes_per_step", Unit: "bytes", Better: "lower",
		Moves: "throughput_per_s and peak_rss_mb on the training workloads"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower",
		Moves: "throughput_per_s and peak_rss_mb on the training workloads"},
	{Name: "tensor.max_workers", Unit: "count", Better: "higher",
		Moves: "throughput_per_s on cv-train-remote; lm-train-local is the control"},
	{Name: "core.obfuscate_s", Unit: "s", Better: "lower",
		Moves: "setup_s on every workload"},
	{Name: "core.extract_ms", Unit: "ms", Better: "lower",
		Moves: "setup_s on lm-serve-tcp"},
	{Name: "cloudsim.bytes_in", Unit: "bytes", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote; must not move lm-train-local"},
	{Name: "cloudsim.bytes_out", Unit: "bytes", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote; must not move lm-train-local"},
	{Name: "cloudsim.server_reads", Unit: "count", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote; must not move lm-train-local"},
	{Name: "cloudsim.server_writes", Unit: "count", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote; must not move lm-train-local"},
	{Name: "cloudsim.server_reads_per_request", Unit: "count", Better: "lower",
		Moves: "latency_p50_ms on lm-serve-tcp"},
	{Name: "cloudsim.server_writes_per_request", Unit: "count", Better: "lower",
		Moves: "latency_p50_ms on lm-serve-tcp"},
	{Name: "cloudsim.bytes_per_request", Unit: "bytes", Better: "lower",
		Moves: "latency_p50_ms on lm-serve-tcp"},
	{Name: "cloudsim.upload_s", Unit: "s", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote"},
	{Name: "cloudsim.server_epoch_s", Unit: "s", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote"},
	{Name: "cloudsim.remote_overhead_s", Unit: "s", Better: "lower",
		Moves: "throughput_per_s on cv-train-remote"},
	{Name: "serve.batches", Unit: "count", Better: "lower",
		Moves: "throughput_per_s on lm-serve-tcp"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher",
		Moves: "throughput_per_s on lm-serve-tcp"},
	{Name: "serve.forward_ms_per_batch", Unit: "ms", Better: "lower",
		Moves: "throughput_per_s on lm-serve-tcp"},
	{Name: "serve.non_forward_ms_per_request", Unit: "ms", Better: "lower",
		Moves: "latency_p50_ms on lm-serve-tcp"},
	{Name: "loadgen.open_loop_p99_ms", Unit: "ms", Better: "lower",
		Moves: "none: the serving tail, timed from due time; p99 of each run of 1000 open-loop requests, median over the runs"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower",
		Moves: "none: it shows how late the load generator ran on lm-serve-tcp"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower",
		Moves: "none: traced time over untraced time of the same work, per workload"},
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	Value   float64
	Samples int
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). It
// sorts a copy, so +Inf entries (failed requests) rank last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

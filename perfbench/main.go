// Command perfbench is the repository's benchmark. It runs one named
// workload through the public API in its own process, checks that the
// outputs are correct, and prints every metric by name with its unit and
// sample count. With --trace 0 it prints the end-to-end metrics, measured
// with tracing off; with --trace 1 it prints the per-layer metrics of a
// traced run, timed from outside around the calls into each layer, plus
// the tracing overhead.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 4, "failed": 0, "metrics": {"setup_s": {"value": 0.05, "unit": "s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload lm-train-local --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --all --seed 1 --seconds 30
//
// --all runs every workload, untraced and traced, each in a child process
// of its own, and prints the combined report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// phase counts the operations of one workload phase.
type phase struct {
	name                         string
	attempted, succeeded, failed int
}

// result is what a workload run reports.
type result struct {
	checks  []string // failed correctness checks
	passed  []string // passed correctness checks
	notes   []string // measurement caveats; they do not fail the run
	phases  []phase
	metrics map[string]metric
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

// check records a correctness check.
func (r *result) check(name string, ok bool, detail string) {
	if ok {
		r.passed = append(r.passed, name)
		return
	}
	r.checks = append(r.checks, name+": "+detail)
}

// tailNote records when a tail percentile has fewer than 10 samples
// beyond it.
func (r *result) tailNote(q float64, n int) {
	if beyond := int(float64(n) * (1 - q)); beyond < 10 {
		r.notes = append(r.notes, fmt.Sprintf("tail p%.0f has %d samples beyond it (of %d); run longer for 10", q*100, beyond, n))
	}
}

func (r *result) correct() bool { return len(r.checks) == 0 }

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return
}

func main() {
	var cfg runConfig
	var trace int
	var all bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics of a traced run")
	flag.BoolVar(&all, "all", false, "run every workload, untraced and traced, each in its own process")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if all {
		if err := runAll(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	// The load generator shares the process with the servers; it never
	// runs more threads than the machine has CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	env := readEnv()
	total0, steal0 := cpuTicks()
	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	total1, steal1 := cpuTicks()
	printReport(os.Stdout, cfg, env, res, 100*ratio(int64(steal1-steal0), int64(total1-total0)))
	line, err := contractLine(cfg, res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
}

var workloads = map[string]func(runConfig) (*result, error){
	wlLMTrain: runLMTrain,
	wlCVTrain: runCVTrain,
	wlLMServe: runLMServe,
}

// contractLine renders the final JSON line: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
func contractLine(cfg runConfig, res *result) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.correct(), Metrics: map[string]value{}}
	out.Attempted, out.Failed = res.totals()
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("%s did not report %s", cfg.workload, d.Name)
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A tail made of failed requests has no finite latency; the
			// failures already fail the run.
			out.Correct = false
			v = -1
		}
		out.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

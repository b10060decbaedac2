package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"amalgam/internal/tensor"
)

// env is the machine and source record printed with every result.
type env struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	SIMD       bool   `json:"simd"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func readEnv() env {
	e := env{
		Commit:     "unknown",
		SourceHash: sourceHash("."),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       tensor.SIMDEnabled(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	// A checkout without git metadata has no commit; the source hash
	// still identifies the code measured.
	if _, err := os.Stat(".git"); err != nil {
		return e
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// sourceHash digests every Go source and go.mod under root, skipping
// hidden directories (build outputs live there).
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide busy, idle and steal ticks from
// /proc/stat. Steal is time the hypervisor ran someone else on this
// machine's CPUs; a run with much of it measured a contended host.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// peakRSSMiB reads VmHWM, the process's peak resident set.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printReport writes the human-readable part of a run: machine, checks,
// phase counts, and each metric with its unit and sample count.
func printReport(w io.Writer, cfg runConfig, e env, res *result, stealPct float64) {
	mode := "end-to-end, tracing off"
	defs := endToEnd
	if cfg.trace {
		mode, defs = "per-layer, traced", perLayer
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g (%s)\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	envJSON, _ := json.Marshal(e)
	fmt.Fprintf(w, "env %s\n", envJSON)
	fmt.Fprintf(w, "host steal   %.1f%% of CPU time during the run\n", stealPct)
	for _, c := range res.passed {
		fmt.Fprintf(w, "check ok     %s\n", c)
	}
	for _, c := range res.checks {
		fmt.Fprintf(w, "check FAILED %s\n", c)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "note         %s\n", n)
	}
	for _, p := range res.phases {
		fmt.Fprintf(w, "phase %-14s attempted %6d  succeeded %6d  failed %d\n", p.name, p.attempted, p.succeeded, p.failed)
	}
	for _, d := range defs {
		m := res.metrics[d.Name]
		doc := d.Means
		if cfg.trace {
			doc = "moves " + d.Moves
		}
		fmt.Fprintf(w, "metric %-36s %14.6g %-6s n=%-7d %s\n", d.Name, m.Value, d.Unit, m.Samples, doc)
	}
}

// runAll runs every workload untraced and traced, each in a child process
// of its own so no process-wide state (tensor worker count, scratch pool,
// heap) leaks from one into the next, and passes the children's reports
// through.
func runAll(cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	attempted, failed := 0, 0
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s --trace %s: %w", wl, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				return fmt.Errorf("%s --trace %s: result line: %w", wl, trace, err)
			}
			ok = ok && last.Correct
			attempted += last.Attempted
			failed += last.Failed
		}
	}
	fmt.Printf("== all workloads: correct=%v attempted=%d failed=%d\n", ok, attempted, failed)
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

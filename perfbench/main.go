// Command perfbench is hmcsim's repository benchmark. It runs one
// named workload for a fixed host-time window, checks every output it
// produces, and prints each metric by name with its unit followed by
// one JSON result line:
//
//	perfbench -workload gups-hmc -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics. With
// -trace 1 it carries the per-layer metrics: the workload measured for
// half the window untraced and half traced (their difference is the
// tracing overhead), then the layer ladder. perfbench/run.py builds
// this binary and hmcsimd from source and runs it; README.md beside
// this file records why each workload exists and which layer metric
// should move which end-to-end metric on which workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is the state one invocation shares across workload, checks
// and ladder: the seed, the measured window, failure accounting and
// the span recorder (nil when untraced).
type bench struct {
	seed    uint64
	window  time.Duration
	hmcsimd string
	tr      *tracer

	attempted, failed int64
}

// fail records one failed operation or correctness check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// workload is one named input set. run measures it: for the whole
// window untraced, or for two half windows (untraced, then traced)
// when b.tr is set. It returns the end-to-end metrics (untraced) or
// the workload's own per-layer metrics (traced).
type workload struct {
	name string
	run  func(b *bench, traced bool) (metrics, error)
}

var workloads = []workload{
	{"gups-hmc", runGupsHMC},
	{"backends-rw", runBackendsRW},
	{"mesh-chain16", runMeshChain16},
	{"svc-mix", runSvcMix},
}

// fingerprint identifies the host and the source a run measured.
// Runs are comparable only when every host field matches.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
	Dirty      string `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB is this process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: gups-hmc, backends-rw, mesh-chain16 or svc-mix")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured host-time window in seconds")
		trace    = flag.Int("trace", 0, "1 = per-layer run (workload untraced + traced, then the layer ladder)")
		hmcsimd  = flag.String("hmcsimd", "", "path to the hmcsimd binary (svc-mix and the ladder's service rung)")
		traceDir = flag.String("trace-dir", "", "directory for the span dump of a traced run")
		commit   = flag.String("commit", "unknown", "source commit, for the fingerprint")
		tree     = flag.String("tree", "unknown", "source tree hash, for the fingerprint")
		dirty    = flag.String("dirty", "unknown", "uncommitted changes present, for the fingerprint")
	)
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *hmcsimd == "" && (w.name == "svc-mix" || *trace == 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -hmcsimd is required for svc-mix and traced runs")
		os.Exit(2)
	}

	fp := fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: *commit, Tree: *tree, Dirty: *dirty,
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
	}
	fpLine, _ := json.Marshal(fp) // plain struct: cannot fail
	fmt.Printf("fingerprint %s\n", fpLine)

	b := &bench{seed: *seed, window: time.Duration(*seconds) * time.Second, hmcsimd: *hmcsimd}
	traced := *trace == 1
	if traced {
		b.tr = newTracer()
	}
	ms, err := w.run(b, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if traced {
		lm, err := runLadder(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: ladder:", err)
			os.Exit(1)
		}
		// A workload's own measurement of a ladder figure (svc-mix's
		// hit ratio) takes precedence over the ladder's.
		for k, v := range lm {
			if _, ok := ms[k]; !ok {
				ms[k] = v
			}
		}
		if *traceDir != "" {
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := b.tr.write(path); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
				os.Exit(1)
			}
			fmt.Printf("spans %d written to %s\n", len(b.tr.spans), path)
		}
	}

	names := make([]string, 0, len(ms))
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s is %v", k, m.Value)
			ms[k] = metric{Value: 0, Unit: m.Unit}
		}
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-36s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

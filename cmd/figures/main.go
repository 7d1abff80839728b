// Command figures regenerates every table and figure of the paper's
// evaluation on the simulated stack, writing aligned-text, CSV and
// JSON outputs to a results directory.
//
// Usage:
//
//	figures [-out results] [-id figure7] [-quick] [-measure-us 800]
//	        [-workers N] [-progress] [-cpuprofile cpu.pprof]
//	        [-memprofile mem.pprof]
//
// Without -id it runs the full registry (Table I-III, Figure 3,
// Figures 6-18). Ctrl-C cancels the in-flight sweep cleanly.
//
// The profile flags capture the whole registry run: the CPU profile
// stops and both files are written after the last experiment
// completes, so `go tool pprof` sees every simulation kernel at its
// steady state. An interrupted or failed run finalizes the profiles
// for whatever did execute; a flag usage error writes nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"hmcsim/internal/experiments"
	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

func main() {
	out := flag.String("out", "results", "output directory")
	id := flag.String("id", "", "run a single experiment id (e.g. figure7); empty = all")
	quick := flag.Bool("quick", false, "use quick (low-fidelity) measurement windows")
	measureUs := flag.Int("measure-us", 0, "override measurement window in simulated microseconds")
	warmupUs := flag.Int("warmup-us", 0, "override warmup window in simulated microseconds")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = NumCPU)")
	shards := flag.Int("shards", 1, "worker goroutines per sharded scenario's PDES mesh (results identical at every value)")
	ext := flag.Bool("ext", false, "include the extension experiments (ablations, projections)")
	thermal := flag.Bool("thermal", false, "close the thermal/power feedback loop on scenario-backed experiments (scn-*, ext-backends, ext-loadlat; sharded scn-* and the sharded overview ignore it)")
	cooling := flag.String("cooling", "", "Table III cooling environment for -thermal: Cfg1..Cfg4 (default Cfg2)")
	faults := flag.String("faults", "", "overlay a fault plan on scenario-backed experiments (see internal/fault; the ext-fault-* family always injects)")
	faultRetries := flag.Int("fault-retries", 0, "retry errored scenario requests up to N times with exponential backoff")
	faultDeadlineUs := flag.Float64("fault-deadline-us", 0, "abandon scenario requests older than this many simulated microseconds (0 = never)")
	traffic := flag.String("traffic", "", "overlay a traffic model on scenario-backed experiments, e.g. \"burst:8/0.5@10us/25us\" (the ext-slo-* family scripts its own ladders)")
	sloNs := flag.Float64("slo-ns", 0, "default per-tenant latency SLO target in nanoseconds on scenario-backed experiments")
	serveCheckURL := flag.String("serve-check", "", "replay a scn-* experiment through a running hmcsimd at this base URL and diff against the local run")
	list := flag.Bool("list", false, "list experiment ids and exit")
	progress := flag.Bool("progress", false, "print per-cell sweep progress")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the registry run")
	memprofile := flag.String("memprofile", "", "write a heap profile after the registry completes")
	flag.Parse()

	registry := experiments.All
	if *ext {
		registry = experiments.AllWithExtensions
	}

	if *list {
		for _, e := range registry() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	// Ctrl-C cancels the worker pool; in-flight cells finish, queued
	// cells never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	if *measureUs > 0 {
		opts.Measure = sim.Duration(*measureUs) * sim.Microsecond
	}
	if *warmupUs > 0 {
		opts.Warmup = sim.Duration(*warmupUs) * sim.Microsecond
	}
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Shards = *shards
	opts.Thermal = *thermal || *cooling != ""
	opts.Cooling = *cooling
	opts.Faults = scenario.Faults{
		Plan:       *faults,
		MaxRetries: *faultRetries,
		Deadline:   sim.Duration(*faultDeadlineUs * float64(sim.Microsecond)),
	}
	opts.Traffic = *traffic
	opts.SLONs = *sloNs
	opts.Context = ctx
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  cell %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	if *serveCheckURL != "" {
		cid := *id
		if cid == "" {
			cid = "scn-uniform"
		}
		if err := serveCheck(strings.TrimRight(*serveCheckURL, "/"), cid, opts); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		return
	}

	todo := registry()
	if *id != "" {
		todo = nil
		for _, e := range experiments.AllWithExtensions() {
			if e.ID == *id {
				todo = []experiments.Experiment{e}
				break
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "figures: unknown experiment id %q\n", *id)
			os.Exit(1)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Profiles start only after flag validation, so a usage error
	// never truncates an existing profile. stopProfiles finalizes
	// both files; exits below route through it so an interrupted or
	// failed run still leaves valid (partial-run) profiles behind.
	// Both profile files are created before any profiling starts, so a
	// bad path fails here — not after minutes of simulation, and not
	// leaving the other profile unterminated.
	var cpuFile, memFile *os.File
	for _, p := range []struct {
		path string
		dst  **os.File
	}{{*cpuprofile, &cpuFile}, {*memprofile, &memFile}} {
		if p.path == "" {
			continue
		}
		f, err := os.Create(p.path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		*p.dst = f
	}
	stopProfiles := func() {}
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stopProfiles = func() {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
	}
	if memFile != nil {
		cpuStop := stopProfiles
		stopProfiles = func() {
			cpuStop()
			defer memFile.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}
	fail := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	sinks := runner.Sinks()
	for _, e := range todo {
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "figures: interrupted")
				fail(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			fail(1)
		}
		var paths []string
		for _, s := range sinks {
			path := filepath.Join(*out, e.ID+"."+s.Ext())
			f, err := os.Create(path)
			if err == nil {
				err = s.Write(f, rep)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fail(1)
			}
			paths = append(paths, path)
		}
		fmt.Printf("%-10s %-55s %8s -> %s\n",
			e.ID, e.Title, time.Since(start).Round(time.Millisecond), strings.Join(paths, ", "))
	}
	stopProfiles()
}

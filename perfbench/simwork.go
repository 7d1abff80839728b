package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"syscall"
	"time"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// leg is one scenario run inside a workload repetition.
type leg struct {
	name string
	spec scenario.Spec
	opts scenario.Options
}

// simWorkload is a library-level workload. Its inputs are a panel of
// sub-seeds drawn from --seed; a visit runs one sub-seed's legs
// through scenario.Run at the publication-fidelity windows (150 us
// warmup + 800 us measured), and the measured window cycles through
// the panel. The simulator's host cost differs by up to a third
// between seeds (adaptive queue tuning settles differently), so a
// panel averages that out instead of letting one seed decide a run.
type simWorkload struct {
	// resolve builds one sub-seed's legs (spec resolution).
	resolve func(seed uint64) ([]leg, error)
	// check is an extra exactness check on every result.
	check func(r scenario.Result) error
	// verify runs once after the timed window, given the panel's
	// first visit and its reference digests.
	verify func(b *bench, legs []leg, ref [][32]byte)
	// seeds is the panel size; setups how many times set-up is
	// repeated for setup_s; threads how many cores the simulation
	// keeps busy (copies of the reference kernel).
	seeds, setups, threads int
}

func runGupsHMC(b *bench, traced bool) (metrics, error) {
	return runSim(b, traced, simWorkload{
		resolve: func(seed uint64) ([]leg, error) {
			s, err := scenario.ByName("uniform")
			return []leg{{"uniform@hmc", s, scenario.Options{Seed: seed}}}, err
		},
		check:   littlesLaw,
		seeds:   64,
		setups:  9,
		threads: 1,
	})
}

func runBackendsRW(b *bench, traced bool) (metrics, error) {
	return runSim(b, traced, simWorkload{
		resolve: func(seed uint64) ([]leg, error) {
			base, err := scenario.ByName("mixed-rw")
			if err != nil {
				return nil, err
			}
			o := scenario.Options{
				Seed: seed, Thermal: true, Cooling: "Cfg2",
				Faults: scenario.Faults{Plan: backendsRWPlan, MaxRetries: 3},
			}
			var legs []leg
			for _, be := range []string{"hmc", "ddr4", "chain"} {
				s := scenario.WithBackend(base, be)
				legs = append(legs, leg{s.Name, s, o})
			}
			return legs, nil
		},
		seeds:   32,
		setups:  9,
		threads: 1,
	})
}

// backendsRWPlan is backends-rw's fault plan: 1% transient link
// errors, with up to three driver retries.
const backendsRWPlan = "rate=0.01"

func runMeshChain16(b *bench, traced bool) (metrics, error) {
	return runSim(b, traced, simWorkload{
		resolve: func(seed uint64) ([]leg, error) {
			s, err := scenario.ByName("chain-16-remote")
			return []leg{{"chain-16-remote/shards2", s, scenario.Options{Seed: seed, Shards: 2}}}, err
		},
		// The partition is fixed by the spec, so one worker must
		// reproduce the two-worker result bit for bit.
		verify: func(b *bench, legs []leg, ref [][32]byte) {
			o := legs[0].opts
			o.Shards = 1
			b.attempted++
			r, err := scenario.Run(legs[0].spec, o)
			if err != nil {
				b.fail("chain-16-remote/shards1: %v", err)
				return
			}
			if d, err := digest(r); err != nil || d != ref[0] {
				b.fail("chain-16-remote: Shards=1 digest differs from Shards=2 (err %v)", err)
			}
		},
		seeds:   12,
		setups:  5,
		threads: 2,
	})
}

// littlesLaw checks the closed loop on the gups path: 9 ports with 64
// tags each keep 576 reads in flight, so MRPS x mean latency = 576.
func littlesLaw(r scenario.Result) error {
	const want = 9 * 64
	got := r.Total.MRPS * r.Total.ReadLatencyNs.Mean() / 1e3
	if math.Abs(got-want)/want > 0.01 {
		return fmt.Errorf("Little's law: %.1f MRPS x %.0f ns = %.1f outstanding, want %d", r.Total.MRPS, r.Total.ReadLatencyNs.Mean(), got, want)
	}
	return nil
}

// cpuTime is this process's user plus system CPU time. Costs are
// taken in CPU time, not wall time: on a shared virtual machine the
// hypervisor steals a varying share of wall time, which CPU time
// excludes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// simRun holds one run's panel, reference digests and measurements.
type simRun struct {
	w     simWorkload
	panel [][]leg
	ref   [][][32]byte // per sub-seed, set on its first visit
	next  int
	// cost holds CPU ns per simulated request of every visit, per
	// sub-seed, indexed by whether the visit was traced.
	cost [2][][]float64
	reqs [2]uint64 // simulated requests completed in measured windows
	// allocPerReq is each sub-seed's heap bytes allocated inside
	// scenario.Run per simulated request (untraced visits; exact).
	allocPerReq []float64
}

// nsPerReq is the mean over visited sub-seeds of each one's median
// cost, so every seed weighs the same however often it was visited.
func (r *simRun) nsPerReq(traced int) float64 {
	var per []float64
	for _, visits := range r.cost[traced] {
		if len(visits) > 0 {
			per = append(per, median(visits))
		}
	}
	return mean(per)
}

func (r *simRun) visits(traced int) int {
	n := 0
	for _, v := range r.cost[traced] {
		n += len(v)
	}
	return n
}

// visit runs sub-seed i's legs once and checks every result.
func (r *simRun) visit(b *bench, i int, tr *tracer) {
	var m0, m1 runtime.MemStats
	var reqs, alloc uint64
	var cpu time.Duration
	ok := true
	root := tr.begin(fmt.Sprintf("visit seed#%d", i), 0)
	digests := make([][32]byte, len(r.panel[i]))
	for j, l := range r.panel[i] {
		runtime.ReadMemStats(&m0)
		id := tr.begin("scenario.Run "+l.name, root)
		c0 := cpuTime()
		res, err := scenario.Run(l.spec, l.opts)
		c1 := cpuTime()
		tr.end(id)
		runtime.ReadMemStats(&m1)
		b.attempted++
		if err != nil {
			b.fail("%s: %v", l.name, err)
			ok = false
			continue
		}
		alloc += m1.TotalAlloc - m0.TotalAlloc
		cpu += c1 - c0
		reqs += res.Total.Reads + res.Total.Writes
		if digests[j], err = digest(res); err != nil {
			b.fail("%s: %v", l.name, err)
		}
		if r.w.check != nil {
			if err := r.w.check(res); err != nil {
				b.fail("%s: %v", l.name, err)
			}
		}
	}
	tr.end(root)
	if !ok {
		return
	}
	if r.ref[i] == nil {
		r.ref[i] = digests
	} else {
		for j := range digests {
			if digests[j] != r.ref[i][j] {
				b.fail("%s: digest differs between repeats of one seed", r.panel[i][j].name)
			}
		}
	}
	t := 0
	if tr != nil {
		t = 1
	}
	r.reqs[t] += reqs
	if reqs > 0 && cpu > 0 {
		r.cost[t][i] = append(r.cost[t][i], float64(cpu.Nanoseconds())/float64(reqs))
	}
	if reqs > 0 && tr == nil {
		r.allocPerReq[i] = float64(alloc) / float64(reqs)
	}
}

func runSim(b *bench, traced bool, w simWorkload) (metrics, error) {
	rng := sim.NewRNG(b.seed)
	seeds := make([]uint64, w.seeds)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	r := &simRun{w: w, ref: make([][][32]byte, w.seeds), allocPerReq: make([]float64, w.seeds)}
	for t := range r.cost {
		r.cost[t] = make([][]float64, w.seeds)
	}

	// Set-up: resolve the panel and warm up on one sub-seed, costed in
	// CPU time at the reference host speed like the window. Each
	// repetition warms up on the next sub-seed, so the median does not
	// rest on one seed's cost. The run's host speed is the median of
	// every kernel sample, set-up and window alike.
	setups := make([]float64, w.setups)
	var refs []float64
	for k := range setups {
		refs = append(refs, refKernel(w.threads))
		c0 := cpuTime()
		panel := make([][]leg, len(seeds))
		for i, s := range seeds {
			legs, err := w.resolve(s)
			if err != nil {
				return nil, err
			}
			panel[i] = legs
		}
		i := k % len(panel)
		results := make([]scenario.Result, len(panel[i]))
		for j, l := range panel[i] {
			b.attempted++
			var err error
			if results[j], err = scenario.Run(l.spec, l.opts); err != nil {
				return nil, fmt.Errorf("%s: %w", l.name, err)
			}
		}
		setups[k] = (cpuTime() - c0).Seconds()
		r.panel = panel
		ds := make([][32]byte, len(results))
		for j, res := range results {
			var err error
			if ds[j], err = digest(res); err != nil {
				return nil, err
			}
		}
		if r.ref[i] == nil {
			r.ref[i] = ds
		}
		for j := range ds {
			if ds[j] != r.ref[i][j] {
				b.fail("%s: set-up run %d digest differs from the first", panel[i][j].name, k)
			}
		}
	}

	// The timed window: cycle the panel, taking the host's speed with
	// the reference kernel before every visit; a traced run visits each
	// sub-seed twice in a row, once untraced and once traced.
	deadline := time.Now().Add(b.window)
	for first := true; first || time.Now().Before(deadline); first = false {
		i := r.next
		r.next = (r.next + 1) % len(seeds)
		refs = append(refs, refKernel(w.threads))
		if !traced {
			r.visit(b, i, nil)
			continue
		}
		// Which side goes first alternates across sub-seeds and laps,
		// so what one visit leaves behind (GC debt, warm caches)
		// falls on both sides alike.
		if (i+len(r.cost[0][i]))%2 == 0 {
			r.visit(b, i, nil)
			r.visit(b, i, b.tr)
		} else {
			r.visit(b, i, b.tr)
			r.visit(b, i, nil)
		}
	}
	if w.verify != nil {
		w.verify(b, r.panel[0], r.ref[0])
	}

	out := metrics{}
	if traced {
		u, t := 1e3/r.nsPerReq(0), 1e3/r.nsPerReq(1)
		out.set("trace.untraced_sim_mreq_per_s", u, "Mreq/s")
		out.set("trace.traced_sim_mreq_per_s", t, "Mreq/s")
		out.set("trace.overhead_pct", (u-t)/u*100, "%")
		out.set("scenario.sim_reqs_per_run", float64(r.reqs[0])/float64(r.visits(0)), "count")
		return out, nil
	}
	raw, ref := 1e3/r.nsPerReq(0), median(refs)
	fmt.Printf("visits %d over %d sub-seeds, simulated requests per visit %.0f\n",
		r.visits(0), w.seeds, float64(r.reqs[0])/float64(r.visits(0)))
	fmt.Printf("raw %.4f Mreq per CPU-second, reference kernel %.3f ms\n", raw, ref/1e6)
	out.set("sim_mreq_per_ref_s", raw*ref/refNominal, "Mreq/s")
	var allocs []float64
	for i, a := range r.allocPerReq {
		if len(r.cost[0][i]) > 0 {
			allocs = append(allocs, a)
		}
	}
	out.set("alloc_bytes_per_req", mean(allocs), "B")
	out.set("setup_s", median(setups)*refNominal/ref, "s")
	out.set("max_rss_mb", maxRSSMB(), "MB")
	out.set("ok_frac", 1-float64(b.failed)/float64(b.attempted), "ratio")
	return out, nil
}

// digest hashes a result exactly: the rendered report plus every
// counter, latency summary and histogram bucket it rounds or omits.
func digest(r scenario.Result) ([32]byte, error) {
	js, err := r.Report().JSON()
	if err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	io.WriteString(h, js)
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putF := func(x float64) { put(math.Float64bits(x)) }
	for _, ts := range append(append([]scenario.TenantStats(nil), r.Tenants...), r.Total) {
		for _, v := range []uint64{ts.Reads, ts.Writes, ts.Errors, ts.Retries, ts.Abandoned, ts.Failed, ts.SLOMet} {
			put(v)
		}
		for _, s := range []stats.Summary{ts.ReadLatencyNs, ts.WriteLatencyNs} {
			put(s.N())
			putF(s.Mean())
			putF(s.Variance())
		}
		for _, lh := range []*stats.LogHist{ts.ReadHistNs, ts.WriteHistNs} {
			if lh != nil {
				lh.EachBucket(func(lo, _, n uint64) { put(lo); put(n) })
			}
		}
	}
	if r.Thermal != nil {
		putF(r.Thermal.MaxC())
		put(r.Thermal.Rejected)
	}
	h.Write(buf)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

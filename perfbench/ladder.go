package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"hmcsim/internal/chain"
	"hmcsim/internal/ddr"
	"hmcsim/internal/fault"
	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/simcache"
	"hmcsim/internal/stats"
)

// The layer ladder drives one fixed, seeded stream — 9 closed-loop
// ports with 64 outstanding 128 B uniform-random reads each, the
// gups-hmc shape — through each layer's entry point in turn, from the
// bare event kernel up to gups.Port, and reports each rung's host ns
// per simulated request (CPU time) as the increment over the rung
// below it.
const (
	ladderPorts  = 9
	ladderWindow = 64
	ladderReqs   = 150_000 // requests per rung repetition
	ladderReps   = 5
	reqBytes     = 128
)

// driver is the benchmark's minimal closed-loop issuer: every slot
// keeps one request outstanding and reissues on completion until the
// stream's request budget is spent.
type driver struct {
	eng       *sim.Engine
	rng       *sim.RNG
	blocks    uint64
	issued    int
	completed int
	errs      int
	issue     func(s *slot)
}

// slot is one outstanding request; its completion callbacks are built
// once, so issuing allocates nothing per request.
type slot struct {
	d     *driver
	port  int
	addr  uint64
	retry func()
	onDev func(hmc.AccessResult)
	onCtl func(fpga.Result)
	onMem mem.Done
	onDDR func(ddr.Result)
}

func (s *slot) Fire(*sim.Engine) { s.complete(false) }

func (s *slot) complete(err bool) {
	s.d.completed++
	if err {
		s.d.errs++
	}
	s.d.next(s)
}

func (d *driver) next(s *slot) {
	if d.issued == ladderReqs {
		return
	}
	d.issued++
	s.addr = d.rng.Uint64n(d.blocks) * reqBytes
	d.issue(s)
}

// newDriver prepares the stream's slots over issue.
func newDriver(eng *sim.Engine, capBytes, seed uint64, issue func(*slot)) (*driver, []slot) {
	d := &driver{eng: eng, rng: sim.NewRNG(seed), blocks: capBytes / reqBytes, issue: issue}
	slots := make([]slot, ladderPorts*ladderWindow)
	for i := range slots {
		s := &slots[i]
		s.d, s.port = d, i/ladderWindow
		s.retry = func() { d.issue(s) }
		s.onDev = func(hmc.AccessResult) { s.complete(false) }
		s.onCtl = func(fpga.Result) { s.complete(false) }
		s.onMem = func(r mem.Result) { s.complete(r.Err) }
		s.onDDR = func(ddr.Result) { s.complete(false) }
	}
	return d, slots
}

// run issues the stream and runs the engine until every request
// completed.
func (d *driver) run(slots []slot) {
	for i := range slots {
		d.next(&slots[i])
	}
	d.eng.Run()
}

// memIssue submits through mem.Port admission control.
func memIssue(ports []mem.Port) func(*slot) {
	return func(s *slot) {
		p := ports[s.port]
		if !p.CanIssue(s.addr) {
			p.WaitIssue(s.addr, s.retry)
			return
		}
		p.Submit(mem.Request{Addr: s.addr, Size: reqBytes}, s.onMem)
	}
}

func hmcStack(eng *sim.Engine) (*hmc.Device, *fpga.Controller, *mem.HMC, error) {
	amap, err := hmc.NewAddressMap(hmc.Geometries(hmc.DefaultGeneration), hmc.DefaultMaxBlock)
	if err != nil {
		return nil, nil, nil, err
	}
	dev, err := hmc.NewDevice(eng, hmc.DefaultParams(), amap)
	if err != nil {
		return nil, nil, nil, err
	}
	ctrl, err := fpga.NewController(eng, dev, fpga.DefaultParams())
	if err != nil {
		return nil, nil, nil, err
	}
	return dev, ctrl, mem.NewHMC(eng, dev, ctrl), nil
}

func portsOf(be mem.Backend, n int) []mem.Port {
	ps := make([]mem.Port, ladderPorts)
	for i := range ps {
		ps[i] = be.Port(i % n)
	}
	return ps
}

// rung builds one layer's entry point on a fresh engine, returning the
// address space and the issue function the minimal driver calls.
type rung struct {
	name  string
	below string // the rung this one's increment is taken over ("" = none)
	build func(eng *sim.Engine, seed uint64) (uint64, func(*slot), error)
}

var rungs = []rung{
	{"sim.kernel", "", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		// One event per request, 3..5 us out, so the queue holds the
		// stream's 576 pending completions as the device rungs do.
		return 1 << 32, func(s *slot) {
			eng.ScheduleHandler(3*sim.Microsecond+sim.Duration(s.addr/reqBytes%2048)*sim.Nanosecond, s)
		}, nil
	}},
	{"hmc.device", "sim.kernel", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		dev, _, _, err := hmcStack(eng)
		if err != nil {
			return 0, nil, err
		}
		links := dev.Links()
		return dev.Geometry().SizeBytes, func(s *slot) {
			dev.Submit(eng.Now(), s.port%links, hmc.Request{Addr: s.addr, Size: reqBytes, Port: s.port}, s.onDev)
		}, nil
	}},
	{"fpga.controller", "hmc.device", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		dev, ctrl, _, err := hmcStack(eng)
		if err != nil {
			return 0, nil, err
		}
		return dev.Geometry().SizeBytes, func(s *slot) {
			if !ctrl.CanIssue(s.addr) {
				ctrl.WaitBank(s.addr, s.retry)
				return
			}
			ctrl.Submit(hmc.Request{Addr: s.addr, Size: reqBytes, Port: s.port}, s.onCtl)
		}, nil
	}},
	{"mem.hmc", "fpga.controller", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		_, _, be, err := hmcStack(eng)
		if err != nil {
			return 0, nil, err
		}
		return be.CapacityBytes(), memIssue(portsOf(be, ladderPorts)), nil
	}},
	{"mem.throttle", "mem.hmc", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		_, _, be, err := hmcStack(eng)
		if err != nil {
			return 0, nil, err
		}
		th := mem.NewThrottle(be, 1, nil, sim.Nanosecond) // level 0: pass-through
		return be.CapacityBytes(), memIssue(portsOf(th, ladderPorts)), nil
	}},
	{"fault.injector", "mem.hmc", func(eng *sim.Engine, seed uint64) (uint64, func(*slot), error) {
		_, _, be, err := hmcStack(eng)
		if err != nil {
			return 0, nil, err
		}
		inj, err := injector(be, seed)
		if err != nil {
			return 0, nil, err
		}
		return be.CapacityBytes(), memIssue(portsOf(inj, ladderPorts)), nil
	}},
	{"ddr.channel", "sim.kernel", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		cfg := ddr.DefaultConfig()
		ch, err := ddr.NewChannel(eng, cfg)
		if err != nil {
			return 0, nil, err
		}
		return cfg.ChannelCapacity, func(s *slot) { ch.Access(eng.Now(), s.addr, reqBytes, false, s.onDDR) }, nil
	}},
	{"mem.ddr", "ddr.channel", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		be, err := mem.NewDDR(eng, mem.DDRConfig{})
		if err != nil {
			return 0, nil, err
		}
		return be.CapacityBytes(), memIssue(portsOf(be, 1)), nil
	}},
	{"chain.network", "hmc.device", func(eng *sim.Engine, _ uint64) (uint64, func(*slot), error) {
		nw, err := chain.NewNetwork(eng, 4, chain.Chain, chain.DefaultParams())
		if err != nil {
			return 0, nil, err
		}
		be := mem.NewChain(eng, nw)
		return be.CapacityBytes(), memIssue(portsOf(be, 1)), nil
	}},
}

// injector wraps be in backends-rw's fault plan, armed for the whole
// run.
func injector(be mem.Backend, seed uint64) (*fault.Injector, error) {
	plan, err := fault.ParsePlan(backendsRWPlan)
	if err != nil {
		return nil, err
	}
	inj, err := fault.New(be, fault.Config{Plan: plan, Seed: seed})
	if err != nil {
		return nil, err
	}
	inj.Start(sim.Time(1 << 62))
	return inj, nil
}

// sample is what one repetition of a step observed besides its cost.
type sample struct {
	events  float64  // engine events per request
	simTime sim.Time // simulated time the stream took
}

// stopwatch takes one repetition's CPU time and allocations; a step
// restarts it once its construction is done, so only the request
// stream is measured.
type stopwatch struct {
	c0 time.Duration
	m0 runtime.MemStats
}

func (w *stopwatch) start() {
	runtime.ReadMemStats(&w.m0)
	w.c0 = cpuTime()
}

// step is one measured rung: run drives the stream once and returns
// the simulated requests it completed.
type step struct {
	name, below string
	run         func(w *stopwatch) (uint64, sample, error)
}

func runLadder(b *bench) (metrics, error) {
	root := b.tr.begin("ladder", 0)
	defer b.tr.end(root)
	uniform, err := scenario.ByName("uniform")
	if err != nil {
		return nil, err
	}
	// last holds each step's latest sample; the figures are exact, so
	// later steps size their windows from earlier ones.
	last := map[string]sample{}

	var steps []step
	for _, r := range rungs {
		steps = append(steps, step{r.name, r.below, func(w *stopwatch) (uint64, sample, error) {
			eng := sim.NewEngine()
			capBytes, issue, err := r.build(eng, b.seed)
			if err != nil {
				return 0, sample{}, err
			}
			d, slots := newDriver(eng, capBytes, b.seed, issue)
			w.start()
			d.run(slots)
			if d.completed != ladderReqs {
				b.fail("%s: %d of %d requests completed", r.name, d.completed, ladderReqs)
			}
			return uint64(d.completed), sample{simTime: eng.Now()}, nil
		}})
	}
	steps = append(steps,
		// gups.Port: the cycle-accurate issue loop on mem.HMC, run for
		// the simulated time the mem.hmc rung needed for the budget.
		step{"gups.port", "mem.hmc", func(w *stopwatch) (uint64, sample, error) {
			eng := sim.NewEngine()
			_, _, be, err := hmcStack(eng)
			if err != nil {
				return 0, sample{}, err
			}
			ports := make([]*gups.Port, ladderPorts)
			for i := range ports {
				ports[i] = gups.NewPort(i, be, gups.PortConfig{
					Type: gups.ReadOnly, Size: reqBytes, Mode: gups.Random, Seed: gups.PortSeed(b.seed, i),
				})
				ports[i].SetMeasuring(true)
			}
			w.start()
			for _, p := range ports {
				p.Start()
			}
			eng.RunUntil(last["mem.hmc"].simTime)
			var n uint64
			for _, p := range ports {
				n += p.Monitor().Reads
			}
			return n, sample{events: float64(eng.Processed()) / float64(n)}, nil
		}},
		// scenario.Run of the same stream on ddr4 (one tenant, 9 ports
		// x 64 outstanding through the generic tenant driver), over the
		// simulated time the mem.ddr rung needed.
		step{"scenario.run", "mem.ddr", func(w *stopwatch) (uint64, sample, error) {
			r, err := scenario.Run(scenario.Spec{
				Name: "ladder-ddr4", Backend: "ddr4",
				Warmup: sim.Microsecond, Measure: last["mem.ddr"].simTime,
				Tenants: []scenario.Tenant{{Name: "stream", Ports: ladderPorts, Size: reqBytes, Inject: scenario.Injection{Outstanding: ladderWindow}}},
			}, scenario.Options{Seed: b.seed})
			return r.Total.Reads + r.Total.Writes, sample{}, err
		}},
		// Closure: gups-hmc's own run, costed the way the workload
		// costs it (CPU time over measured-window requests).
		step{"gups-hmc", "gups.port", func(w *stopwatch) (uint64, sample, error) {
			r, err := scenario.Run(uniform, scenario.Options{Seed: b.seed})
			return r.Total.Reads + r.Total.Writes, sample{}, err
		}},
	)

	// Repetitions interleave the steps, so a slow stretch of the host
	// hits every rung alike instead of skewing one increment. Every
	// repetition does the same work, and a shared host only ever slows
	// it down, so each step keeps its fastest repetition.
	ns, allocs := map[string][]float64{}, map[string][]float64{}
	var w stopwatch
	var m1 runtime.MemStats
	for rep := 0; rep < ladderReps; rep++ {
		for _, st := range steps {
			id := b.tr.begin("ladder."+st.name, root)
			w.start()
			n, s, err := st.run(&w)
			cpu := cpuTime() - w.c0
			runtime.ReadMemStats(&m1)
			b.tr.end(id)
			b.attempted++
			if err != nil {
				return nil, fmt.Errorf("%s: %w", st.name, err)
			}
			if n == 0 {
				return nil, fmt.Errorf("%s: no request completed", st.name)
			}
			ns[st.name] = append(ns[st.name], float64(cpu.Nanoseconds())/float64(n))
			allocs[st.name] = append(allocs[st.name], float64(m1.Mallocs-w.m0.Mallocs)/float64(n))
			last[st.name] = s
		}
	}

	out := metrics{}
	for _, st := range steps {
		inc := minimum(ns[st.name])
		if st.below != "" {
			inc -= minimum(ns[st.below])
		}
		switch st.name {
		case "sim.kernel":
			out.set("sim.kernel.ns_per_event", inc, "ns")
		case "gups-hmc":
			out.set("ladder.gups_hmc_ns_per_req", minimum(ns[st.name]), "ns")
			out.set("ladder.unattributed_ns_per_req", inc, "ns")
			continue
		default:
			out.set(st.name+".ns_per_req", inc, "ns")
		}
		out.set(st.name+".allocs_per_req", median(allocs[st.name]), "count")
	}
	out.set("sim.kernel.events_per_req", last["gups.port"].events, "count")

	if err := ladderProbes(b, root, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ladderProbes measures the layers that are not a rung of the request
// stream: the fault counts of backends-rw's plan, the PDES mesh speedup,
// LogHist, the result cache and the service.
func ladderProbes(b *bench, root int, out metrics) error {
	// Fault accounting under backends-rw's plan (exact counts): each
	// injected transient error costs one link retransmission.
	eng := sim.NewEngine()
	_, _, be, err := hmcStack(eng)
	if err != nil {
		return err
	}
	inj, err := injector(be, b.seed)
	if err != nil {
		return err
	}
	d, slots := newDriver(eng, be.CapacityBytes(), b.seed, memIssue(portsOf(inj, ladderPorts)))
	d.run(slots)
	ok, retries := float64(d.completed-d.errs), float64(inj.Injected())
	out.set("fault.useful_ratio", ok/(ok+retries), "ratio")
	out.set("fault.retries_per_kreq", retries/(float64(d.completed)/1000), "count")

	// PDES mesh: one worker against two on the mesh-chain16 spec,
	// alternating, at a shorter window.
	mesh, err := scenario.ByName("chain-16-remote")
	if err != nil {
		return err
	}
	var w1, w2 []float64
	for i := 0; i < ladderReps; i++ {
		for _, shards := range []int{1, 2} {
			id := b.tr.begin(fmt.Sprintf("ladder.sim.mesh.shards%d", shards), root)
			t0 := time.Now()
			b.attempted++
			_, err := scenario.Run(mesh, scenario.Options{Seed: b.seed, Shards: shards, Warmup: 50 * sim.Microsecond, Measure: 300 * sim.Microsecond})
			dt := time.Since(t0).Seconds()
			b.tr.end(id)
			if err != nil {
				return fmt.Errorf("mesh: %w", err)
			}
			if shards == 1 {
				w1 = append(w1, dt)
			} else {
				w2 = append(w2, dt)
			}
		}
	}
	out.set("sim.mesh.speedup_w2", median(w1)/median(w2), "x")

	// LogHist.Record over a pre-drawn value stream.
	rng := sim.NewRNG(b.seed)
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = int64(rng.Uint64n(1 << 16))
	}
	var rec []float64
	for i := 0; i < ladderReps; i++ {
		var h stats.LogHist
		c0 := cpuTime()
		for _, v := range vals {
			h.Record(v)
		}
		rec = append(rec, float64((cpuTime()-c0).Nanoseconds())/float64(len(vals)))
		if h.N() != uint64(len(vals)) {
			b.fail("loghist: recorded %d of %d", h.N(), len(vals))
		}
	}
	out.set("stats.loghist.ns_per_record", median(rec), "ns")

	// simcache: key derivation and a warm Do.
	id := b.tr.begin("ladder.simcache", root)
	spec, err := scenario.ByName("uniform")
	if err != nil {
		return err
	}
	const keyLoops, hitLoops = 20_000, 200_000
	c0 := cpuTime()
	var key simcache.Key
	for i := 0; i < keyLoops; i++ {
		key = simcache.KeyOf(spec, svcOptions(uint64(i)))
	}
	keyNs := float64((cpuTime() - c0).Nanoseconds()) / keyLoops
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		return err
	}
	cache.Put(key, []byte("cached"))
	ctx := context.Background()
	compute := func(context.Context) ([]byte, error) { return nil, fmt.Errorf("warm key recomputed") }
	c0 = cpuTime()
	for i := 0; i < hitLoops; i++ {
		if _, src, err := cache.Do(ctx, key, compute); err != nil || !src.Cached() {
			b.fail("simcache: warm Do missed (%v)", err)
			break
		}
	}
	hitNs := float64((cpuTime() - c0).Nanoseconds()) / hitLoops
	b.tr.end(id)
	out.set("simcache.key_ns", keyNs, "ns")
	out.set("simcache.hit_ns", hitNs, "ns")

	return serviceRung(b, root, out, hitNs)
}

// serviceRung runs two keys per svc-mix scenario name through a fresh
// hmcsimd cold, then twice warm, and the same keys in process.
func serviceRung(b *bench, root int, out metrics, hitNs float64) error {
	id := b.tr.begin("ladder.hmcsimd", root)
	defer b.tr.end(id)
	srv, err := startServer(b.hmcsimd)
	if err != nil {
		return err
	}
	var keys []svcKey
	for i, name := range append(svcNames, svcNames...) {
		keys = append(keys, svcKey{name, b.seed*1_000_000 + 900_000 + uint64(i)})
	}
	post := func(k svcKey) ([]byte, float64, string, error) {
		t0 := time.Now()
		resp, err := loopback.Post(srv.base+"/v1/run", "application/json", bytes.NewReader(k.body()))
		if err != nil {
			return nil, 0, "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if err == nil && resp.StatusCode != 200 {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		return body, ms, resp.Header.Get("X-Cache"), err
	}
	var cold, warm []float64
	bodies := map[svcKey][]byte{}
	for _, k := range keys {
		b.attempted++
		body, ms, verdict, err := post(k)
		if err != nil || verdict != "miss" {
			b.fail("service rung %v: cold verdict %q (%v)", k, verdict, err)
			continue
		}
		bodies[k] = body
		cold = append(cold, ms)
	}
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			b.attempted++
			body, ms, verdict, err := post(k)
			if err != nil || verdict != "hit" || !bytes.Equal(body, bodies[k]) {
				b.fail("service rung %v: warm verdict %q, body match %v (%v)", k, verdict, bytes.Equal(body, bodies[k]), err)
				continue
			}
			warm = append(warm, ms)
		}
	}
	hits, misses, err := srv.cacheCounts()
	if _, serr := srv.stop(); serr != nil {
		b.fail("hmcsimd exit: %v", serr)
	}
	if err != nil {
		return err
	}
	if b.failed == 0 && (hits != 2*float64(len(keys)) || misses != float64(len(keys))) {
		b.fail("service rung: hmcsimd counted %.0f hits and %.0f misses, want %d and %d", hits, misses, 2*len(keys), len(keys))
	}

	var sims []float64
	for _, k := range keys {
		b.attempted++
		t0 := time.Now()
		js, _, _, err := renderInProcess(k)
		sims = append(sims, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil || !bytes.Equal(js, bodies[k]) {
			b.fail("service rung %v: in-process rendering differs (%v)", k, err)
		}
	}
	out.set("hmcsimd.cold_ms_p50", median(cold), "ms")
	out.set("hmcsimd.warm_ms_p50", median(warm), "ms")
	// svc-mix replaces this with its window's measured ratio.
	out.set("hmcsimd.hit_ratio", hits/(hits+misses), "ratio")
	out.set("hmcsimd.http_overhead_ms", median(warm)-hitNs/1e6, "ms")
	out.set("hmcsimd.cold_sim_ms", median(sims), "ms")
	return nil
}

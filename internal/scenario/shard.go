package scenario

import (
	"hmcsim/internal/chain"
	"hmcsim/internal/fault"
	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/mem"
	"hmcsim/internal/runner"
	"hmcsim/internal/sim"
)

// This file is the scenario runner, the one compilation target of
// every spec. The spec's groups become the shards of a sim.Mesh, one
// backend replica per shard; a Groups == 1 spec is a one-shard,
// windowless mesh, whose Run is a single Engine.RunUntil. Tenants run
// on their home shard's engine, and a tenant's Remote fraction crosses
// shards through the mesh's windowed batch exchange. The partition
// lives in the Spec, so the result bytes depend only on the spec and
// seed — Options.Shards picks how many goroutines execute the mesh,
// never what it computes.

// shardWorkers resolves the requested shard worker count against the
// mesh width and the process-wide core budget. The returned release
// function gives the granted cores back (call it once the run ends).
func shardWorkers(req, groups int) (int, func()) {
	w := req
	if w < 1 {
		w = 1
	}
	if w > groups {
		w = groups
	}
	if w <= 1 {
		return 1, func() {}
	}
	extra := runner.Cores.TryAcquire(w - 1)
	return 1 + extra, func() { runner.Cores.Release(extra) }
}

// run executes the (defaulted, validated) spec on a mesh of its groups.
func run(spec Spec, o Options) (Result, error) {
	mesh := sim.NewMesh(spec.Groups)
	boards, err := buildBoards(spec, o, mesh)
	if err != nil {
		return Result{}, err
	}
	return runOn(spec, o, mesh, boards)
}

// board is one group's built memory system: the backend that tenant
// drivers submit to and, when the tenants lower onto gups ports, the
// rig's ports with the index of the tenant owning each.
type board struct {
	be    mem.Backend
	ports []*gups.Port
	owner []int
}

// buildBoards builds every group's backend on its shard engine and
// holds the lowering rule: undecorated hmc tenants get one
// cycle-accurate gups.Port per declared port (tag pool, write FIFO,
// bank stop signal); every other run gets one tenantDriver per tenant
// (see runOn). Port seeds stay keyed by the global port index, so a
// tenant's streams do not depend on how the spec is grouped.
func buildBoards(spec Spec, o Options, mesh *sim.Mesh) ([]board, error) {
	groups := spec.Groups
	boards := make([]board, groups)
	onPorts := spec.Backend == "hmc" && !o.Thermal && !o.Faults.Active() && !spec.needsGenericDrivers()
	pcs := make([][]gups.PortConfig, groups)
	if onPorts {
		all, owner, err := portConfigs(spec, o.Seed)
		if err != nil {
			return nil, err
		}
		for pi, pc := range all {
			g := spec.Tenants[owner[pi]].Home
			pcs[g] = append(pcs[g], pc)
			boards[g].owner = append(boards[g].owner, owner[pi])
		}
	}
	topo := chain.Chain
	if spec.Topology == "ring" {
		topo = chain.Ring
	}
	for g := range boards {
		eng := mesh.Shard(g).Engine()
		switch spec.Backend {
		case "hmc":
			var cfg gups.Config
			ports := len(pcs[g])
			if !onPorts {
				// The tenant drivers open one FPGA port per tenant, not
				// per declared port, on an HMC11 cube, while the gups
				// ports get the HMC10 default; both differences are the
				// port collapse of ROADMAP item 1.
				cfg.Generation = hmc.HMC11
				ports = len(spec.Tenants)
			}
			if fp := fpga.DefaultParams(); ports > fp.Ports {
				fp.Ports = ports
				cfg.FPGAParams = &fp
			}
			rig, err := gups.BuildRigPortsOn(eng, cfg, pcs[g])
			if err != nil {
				return nil, err
			}
			if spec.Refresh {
				rig.Dev.StartRefresh(o.Warmup+o.Measure, false)
			}
			boards[g].be, boards[g].ports = rig.Backend, rig.Ports
		case "ddr4":
			be, err := mem.NewDDR(eng, mem.DDRConfig{Channels: spec.Channels / groups})
			if err != nil {
				return nil, err
			}
			boards[g].be = be
		default: // chain
			nw, err := chain.NewNetwork(eng, spec.Cubes/groups, topo, chain.DefaultParams())
			if err != nil {
				return nil, err
			}
			boards[g].be = mem.NewChain(eng, nw)
		}
	}
	return boards, nil
}

// issueLoop is one traffic source the runner drives: a tenantDriver,
// or the gups.Port of one declared port of an undecorated hmc tenant.
type issueLoop interface {
	start()
	// measure discards the warmup's completions and opens the
	// measured window.
	measure()
	// fold adds the measured window to the owning tenant's and the
	// run's accumulators.
	fold(tenant, total *monAccum)
}

type portLoop struct{ p *gups.Port }

func (l portLoop) start() { l.p.Start() }

func (l portLoop) measure() {
	l.p.ResetMonitor()
	l.p.SetMeasuring(true)
}

func (l portLoop) fold(tenant, total *monAccum) {
	m := l.p.Monitor()
	tenant.add(m)
	total.add(m)
}

// runOn runs the spec's tenants on built boards, one per mesh shard.
// On a Groups == 1 spec the fault injector wraps the backend first
// (innermost: the device is what fails), then the thermal throttle,
// whose feedback runtime samples the stack through both windows (the
// device heats during warmup, like real hardware). Tenants without
// gups ports lower onto tenant drivers, each on its home board.
func runOn(spec Spec, o Options, mesh *sim.Mesh, boards []board) (Result, error) {
	horizon := o.Warmup + o.Measure
	var inj *fault.Injector
	var loop *thermalLoop
	if spec.Groups == 1 { // Run rejects faults and thermal on sharded specs
		be := boards[0].be
		if o.Faults.Plan != "" {
			plan, err := fault.ParsePlan(o.Faults.Plan)
			if err != nil {
				return Result{}, err
			}
			if !plan.Zero() {
				if inj, err = buildInjector(be, plan, o.Seed); err != nil {
					return Result{}, err
				}
				be = inj
			}
		}
		if o.Thermal {
			var err error
			if loop, err = buildThermalLoop(o, be); err != nil {
				return Result{}, err
			}
			be = loop.throttle
			loop.runtime.Start(horizon)
		}
		boards[0].be = be
	}
	for _, t := range spec.Tenants {
		if t.Remote > 0 {
			// The lookahead window is the backends' latency floor: no
			// cross-shard access can land sooner, so flush-aligned
			// delivery at window boundaries never reorders against
			// local traffic a shard has already committed. Without
			// remote traffic the mesh stays windowless and each Run is
			// one barrier-free chunk.
			mesh.SetWindow(boards[0].be.MinLatency())
			break
		}
	}

	var loops []issueLoop
	var owner []int // loop -> tenant index
	for _, b := range boards {
		for pi, p := range b.ports {
			loops = append(loops, portLoop{p})
			owner = append(owner, b.owner[pi])
		}
	}
	if loops == nil {
		for ti, t := range spec.Tenants {
			be := boards[t.Home].be
			port := be.Port(ti)
			if t.Remote > 0 {
				port = newMeshPort(mesh, boards, port, t, ti, o.Seed)
			}
			d, err := newTenantDriver(be, port, t, ti, o, horizon)
			if err != nil {
				return Result{}, err
			}
			loops = append(loops, d)
			owner = append(owner, ti)
		}
	}
	for _, l := range loops {
		l.start()
	}
	if inj != nil {
		inj.Start(horizon)
	}

	workers, release := shardWorkers(o.Shards, spec.Groups)
	defer release()
	mesh.Run(o.Warmup, workers)
	for _, l := range loops {
		l.measure()
	}
	mesh.Run(horizon, workers)

	accums := make([]monAccum, len(spec.Tenants))
	var total monAccum
	for i, l := range loops {
		l.fold(&accums[owner[i]], &total)
	}
	res := assemble(spec, o, accums, total)
	if loop != nil {
		res.Thermal = loop.stats()
	}
	return res, nil
}

// newMeshPort builds tenant ti's issue point on a sharded spec: local
// traffic to its home board's port, a Remote fraction to the others.
func newMeshPort(mesh *sim.Mesh, boards []board, local mem.Port, t Tenant, ti int, seed uint64) *meshPort {
	groups := len(boards)
	peers := make([]mem.Port, groups)
	shards := make([]*sim.MeshShard, groups)
	for g := range boards {
		peers[g] = boards[g].be.Port(ti)
		shards[g] = mesh.Shard(g)
	}
	return &meshPort{
		local:  local,
		shard:  mesh.Shard(t.Home),
		shards: shards,
		peers:  peers,
		home:   t.Home,
		groups: groups,
		frac:   t.Remote,
		// A dedicated stream, offset from the tenant's mix RNG, so
		// adding Remote to a tenant never perturbs its read/write
		// draws.
		rng: sim.NewRNG(gups.PortSeed(seed, ti) ^ 0x5c5c5c5c),
	}
}

// meshPort splits one tenant's traffic between its home replica and
// the rest of the mesh: a draw below the tenant's Remote fraction
// redirects the request to a uniformly-chosen other group, carried by
// a pooled crossFlight across the windowed exchange (out to the
// remote shard, served there, and back). Addresses transfer as-is —
// every replica of an equal partition has the same local address
// space — and the round trip pays the flush alignment of both
// crossings, modeling a batching host-side switch between boards.
type meshPort struct {
	local  mem.Port
	shard  *sim.MeshShard   // home shard
	shards []*sim.MeshShard // all shards, indexed by group
	peers  []mem.Port       // per-group issue point into that replica
	home   int
	groups int
	frac   float64
	rng    *sim.RNG
	free   *crossFlight
}

const (
	flightOutbound = iota + 1 // Fire on the destination shard: submit there
	flightReturn              // Fire back home: deliver the completion
)

// crossFlight is one remote access in transit. It is touched by two
// shards, but only in temporally disjoint phases separated by the
// mesh's exchange barriers, which order the handoffs; the free list
// is only ever touched on the home shard (allocate at submit, release
// at final delivery).
type crossFlight struct {
	mp     *meshPort
	req    mem.Request
	done   mem.Done
	submit sim.Time
	dst    int
	phase  int
	err    bool
	onDone mem.Done
	next   *crossFlight
}

func (p *meshPort) newFlight() *crossFlight {
	f := p.free
	if f == nil {
		f = &crossFlight{mp: p}
		f.onDone = func(r mem.Result) {
			f.err = r.Err
			f.phase = flightReturn
			f.mp.shards[f.dst].Send(f.mp.home, r.Deliver, f)
		}
	} else {
		p.free = f.next
	}
	return f
}

// Fire advances the flight's phase on whichever shard the mesh just
// delivered it to.
func (f *crossFlight) Fire(eng *sim.Engine) {
	switch f.phase {
	case flightOutbound:
		f.mp.peers[f.dst].Submit(f.req, f.onDone)
	default: // flightReturn, on the home shard
		done := f.done
		res := mem.Result{Req: f.req, Submit: f.submit, Deliver: eng.Now(), Err: f.err}
		f.done = nil
		f.next = f.mp.free
		f.mp.free = f
		done(res)
	}
}

// Submit routes the request: local fast path, or a crossFlight to a
// uniformly-chosen other group.
func (p *meshPort) Submit(req mem.Request, done mem.Done) {
	if p.rng.Float64() >= p.frac {
		p.local.Submit(req, done)
		return
	}
	dst := int(p.rng.Uint64n(uint64(p.groups - 1)))
	if dst >= p.home {
		dst++
	}
	f := p.newFlight()
	f.req, f.done, f.dst = req, done, dst
	f.submit = p.shard.Engine().Now()
	f.phase = flightOutbound
	p.shard.Send(dst, f.submit, f)
}

// CanIssue defers to the home replica: admission control is a local
// property, and the remote path's only backpressure is the tenant's
// outstanding window.
func (p *meshPort) CanIssue(addr uint64) bool { return p.local.CanIssue(addr) }

// WaitIssue defers to the home replica (see CanIssue).
func (p *meshPort) WaitIssue(addr uint64, fn func()) { p.local.WaitIssue(addr, fn) }

package scenario

import (
	"fmt"
	"math"

	"hmcsim/internal/gups"
	"hmcsim/internal/mem"
	"hmcsim/internal/sim"
	"hmcsim/internal/workloads"
)

// tenantDriver is one tenant's injector over a mem.Backend port: a
// closed-loop outstanding window (Outstanding x Ports requests in
// flight) or an open-loop paced arrival stream, addresses from the
// tenant's generator over the backend's global address space. Every
// tenant lowers onto one, except on an undecorated hmc run, whose
// tenants keep one cycle-accurate gups.Port per declared port (the
// lowering rule in buildBoards). Because it only speaks mem.Port, the
// same driver runs unmodified on chain and ddr4 backends, on hmc
// under thermal, faults or the traffic features gups.Port lacks — and
// on any fourth backend the mem package grows. On hmc it opens one
// FPGA port per tenant, not per declared port (ROADMAP item 1).
type tenantDriver struct {
	eng      *sim.Engine
	port     mem.Port
	gen      *gups.AddrGen
	mixRNG   *sim.RNG
	readFrac float64
	write    bool
	mixed    bool
	rmw      bool
	size     int
	window   int
	inFlight int
	capacity uint64
	// reject redraws addresses beyond capacity instead of folding
	// them with a modulo: the generator space is the next power of
	// two, and a modulo would hit the low cubes twice as often when
	// the capacity is not a power of two. Random-draw modes use
	// rejection (valid fraction > 1/2, so expected < 2 draws);
	// deterministic cursor walks wrap with the modulo instead, since
	// rejection could spin through the whole dead zone.
	reject bool
	// offset rotates fresh generator addresses (mod capacity): the
	// tenant placement knob (Access.OffsetBytes).
	offset  uint64
	horizon sim.Time

	// Open-loop pacing state. The driver keeps an ABSOLUTE arrival
	// schedule: nextIssue advances along the configured rate curve
	// (fixed interval, phase script or burst process) and is never
	// re-based off Now(), so a window-full or admission stall delays
	// requests but cannot depress offered load — delayed arrivals
	// catch up back-to-back once the window frees. The driver is its
	// own pacing event, so arming a wakeup never allocates.
	paced    bool
	interval sim.Duration // fixed aggregate interval (mode "open")
	phases   []phaseSeg   // cyclic aggregate rate curve (mode "phased")
	cycle    sim.Duration
	// Burst (MMPP) state: per-state aggregate pacing intervals
	// (idleIv 0 = silent idle), mean dwells in ps, and the seeded
	// state timeline.
	burstIv, idleIv     sim.Duration
	burstMean, idleMean float64
	paceRNG             *sim.RNG
	inBurst             bool
	stateEnd            sim.Time
	// startAt is the tenant's lifecycle start (horizon already holds
	// its Stop clip); arrivals and the closed-loop window both open
	// there.
	startAt   sim.Time
	nextIssue sim.Time
	armed     bool

	// rmwPending holds addresses whose read returned and now owe
	// their read-modify-write write-back; they drain ahead of new
	// reads, mirroring the GUPS arbitration priority.
	rmwPending *sim.Queue[uint64]

	// wireRead/wireWrite cache the backend's per-transaction wire
	// cost so the completion path makes no interface calls.
	wireRead, wireWrite uint64

	measuring bool
	mon       gups.Monitor

	onRead func(mem.Result)
	onWr   func(mem.Result)

	// resilient switches issue() onto the clientOp path: pooled
	// per-request state carrying bounded retries with exponential
	// backoff and an end-to-end deadline. Off, the driver issues with
	// the bare onRead/onWr closures exactly as before.
	resilient  bool
	maxRetries int
	backoff    sim.Duration // base delay, doubled per attempt
	deadline   sim.Duration // end to end across retries; 0 = none
	opFree     *clientOp

	// Resilience accounting (measured window only): errs counts every
	// errored completion observed, retries the resubmissions,
	// abandoned the deadline give-ups, failed the requests whose
	// retries were exhausted.
	errs, retries, abandoned, failed uint64
}

// clientOp is one logical request on the resilient path. It is pooled
// and shared by up to three pending references — the in-flight
// completion, a scheduled deadline event and a scheduled backoff
// event — counted in refs; the op returns to the pool at refs == 0.
// The embedded retry/timeout structs give the two scheduled events
// distinct sim.Handler identities without allocation.
type clientOp struct {
	d        *tenantDriver
	addr     uint64
	write    bool
	first    sim.Time // first submission: success latency is end to end
	attempts int
	// finished marks the driver-visible outcome as delivered (window
	// slot freed): late completions and stale events become no-ops.
	finished bool
	refs     int
	retry    opRetry
	timeout  opTimeout
	fn       mem.Done // prebuilt completion closure
	next     *clientOp
}

type opRetry struct{ op *clientOp }

func (e *opRetry) Fire(*sim.Engine) { e.op.fireRetry() }

type opTimeout struct{ op *clientOp }

func (e *opTimeout) Fire(*sim.Engine) { e.op.fireTimeout() }

// newTenantDriver lowers tenant index ti of the (defaulted) spec onto
// a backend through an explicit issue port: the backend's own port ti,
// or on a sharded spec a mesh-aware port (local traffic to the home
// replica, remote traffic across the shard exchange); capacity, limits
// and wire costs still come from the backend. The seed and
// linear-start derivations match the GUPS rig's per-port ones, keyed
// by tenant index, so a spec replays byte-identically across runs and
// worker counts.
func newTenantDriver(be mem.Backend, port mem.Port, t Tenant, ti int, o Options, horizon sim.Time) (*tenantDriver, error) {
	ty, err := t.reqType()
	if err != nil {
		return nil, err
	}
	mode, err := gups.ModeByName(t.Access.Kind)
	if err != nil {
		return nil, err
	}
	iv, err := t.aggregateInterval()
	if err != nil {
		return nil, err
	}
	startAt := sim.Time(t.Start)
	if t.Stop > 0 && sim.Time(t.Stop) < horizon {
		horizon = sim.Time(t.Stop)
	}
	window := t.Inject.Outstanding
	if window == 0 {
		window = be.Limits().ReadDepth
	}
	var zeroMask uint64
	if t.Pattern != "" && t.Pattern != "full" {
		p, err := workloads.ByName(t.Pattern)
		if err != nil {
			return nil, err
		}
		zeroMask = p.ZeroMask
	}
	d := &tenantDriver{
		eng:  be.Engine(),
		port: port,
		gen: gups.NewAddrGenParams(gups.GenParams{
			Mode: mode, Size: t.Size,
			ZeroMask:    zeroMask,
			CapMask:     be.CapMask(),
			Seed:        gups.PortSeed(o.Seed, ti),
			LinearStart: gups.PortLinearStart(ti),
			ZipfTheta:   t.Access.ZipfTheta,
			HotFraction: t.Access.HotFraction,
			HotRate:     t.Access.HotRate,
			StrideBytes: t.Access.StrideBytes,
			JumpEvery:   t.Access.JumpEvery,
		}),
		mixRNG:    sim.NewRNG(gups.PortSeed(o.Seed, ti) ^ 0xa5a5a5a5),
		readFrac:  t.ReadFraction,
		write:     ty == gups.WriteOnly,
		mixed:     ty == gups.Mixed,
		rmw:       ty == gups.ReadModifyWrite,
		size:      t.Size,
		window:    window * t.Ports,
		capacity:  be.CapacityBytes(),
		offset:    t.Access.OffsetBytes,
		reject:    mode == gups.Random || mode == gups.Zipfian || mode == gups.Hotspot,
		horizon:   horizon,
		startAt:   startAt,
		nextIssue: startAt,
		wireRead:  uint64(be.WireBytes(false, t.Size)),
		wireWrite: uint64(be.WireBytes(true, t.Size)),
		mon:       gups.NewMonitor(),
	}
	switch t.Inject.Mode {
	case "open":
		d.paced, d.interval = true, iv
	case "phased":
		d.paced = true
		d.phases, d.cycle = lowerPhases(t)
	case "burst":
		d.paced = true
		d.burstIv = ratePacing(t.Inject.BurstMRPS * float64(t.Ports))
		if t.Inject.IdleMRPS > 0 {
			d.idleIv = ratePacing(t.Inject.IdleMRPS * float64(t.Ports))
		}
		d.burstMean = float64(t.Inject.BurstDwell)
		d.idleMean = float64(t.Inject.IdleDwell)
		// Its own seed stream, so the burst timeline is independent of
		// the mix draw sequence and fixed per (run seed, tenant).
		d.paceRNG = sim.NewRNG(gups.PortSeed(o.Seed, ti) ^ 0x3c3c3c3c)
		d.inBurst = true
		d.stateEnd = d.startAt + expDwell(d.paceRNG, d.burstMean)
	}
	if d.rmw {
		d.rmwPending = sim.NewQueue[uint64](0)
	}
	if fl := o.Faults; fl.MaxRetries > 0 || fl.Deadline > 0 {
		d.resilient = true
		d.maxRetries = fl.MaxRetries
		d.backoff = fl.Backoff
		if d.backoff == 0 {
			d.backoff = be.MinLatency()
		}
		d.deadline = fl.Deadline
	}
	d.onRead = func(r mem.Result) { d.done(r, false) }
	d.onWr = func(r mem.Result) { d.done(r, true) }
	return d, nil
}

// aggregateInterval is the tenant-level fixed open-loop pacing
// interval: Ports ports at RateMRPS each, realized as one paced
// stream (0 for closed loop and for phased/burst, which pace through
// their own schedules). Like the per-port interval, it rounds in the
// kernel's picosecond clock so the realized rate stays within
// rounding error; aggregates beyond the clock are rejected (Validate
// catches them first).
func (t Tenant) aggregateInterval() (sim.Duration, error) {
	iv, err := t.issueInterval()
	if err != nil || iv == 0 {
		return iv, err
	}
	iv = sim.Duration(math.Round(1000.0 / (t.Inject.RateMRPS * float64(t.Ports)) * float64(sim.Nanosecond)))
	if iv < 1 {
		return 0, fmt.Errorf("scenario: tenant %q aggregate rate %g MRPS x %d ports is beyond the kernel's 1 ps pacing resolution", t.Name, t.Inject.RateMRPS, t.Ports)
	}
	return iv, nil
}

// start arms the injector at the tenant's lifecycle start.
func (d *tenantDriver) start() { d.arm(d.startAt) }

// measure discards the warmup's completions in place (histogram
// storage kept) and opens the measured window.
func (d *tenantDriver) measure() {
	d.mon.Reset()
	d.measuring = true
}

// fold adds the measured window, resilience accounting included, to
// the tenant's and the run's accumulators.
func (d *tenantDriver) fold(tenant, total *monAccum) {
	for _, a := range [2]*monAccum{tenant, total} {
		a.add(d.mon)
		a.errs += d.errs
		a.retries += d.retries
		a.abandoned += d.abandoned
		a.failed += d.failed
	}
}

// Fire is the pacing/retry event entry point; only it clears the
// armed flag (completions call issue directly and must leave an armed
// pacing event in place — the same discipline gups.Port documents).
func (d *tenantDriver) Fire(*sim.Engine) {
	d.armed = false
	d.issue()
}

func (d *tenantDriver) arm(at sim.Time) {
	if d.armed {
		return
	}
	d.armed = true
	d.eng.AtHandler(at, d)
}

// nextOp picks the next operation: pending RMW write-backs first,
// then a fresh generator address with the tenant's read/write intent.
func (d *tenantDriver) nextOp() (addr uint64, write bool) {
	if d.rmw && d.rmwPending.Len() > 0 {
		a, _ := d.rmwPending.Pop()
		return a, true
	}
	addr = d.gen.Next()
	if d.reject {
		for addr >= d.capacity {
			addr = d.gen.Next()
		}
	} else {
		addr %= d.capacity
	}
	if d.offset != 0 {
		// Rotate only fresh addresses — RMW write-backs replay the
		// already-rotated read address.
		addr = (addr + d.offset) % d.capacity
	}
	write = d.write
	if d.mixed {
		write = d.mixRNG.Float64() >= d.readFrac
	}
	return addr, write
}

// issue fills the outstanding window (closed loop) or releases every
// arrival the absolute schedule owes up to now (open-loop modes).
// Paced arrivals delayed by a full window issue back-to-back the
// moment slots free, so offered load tracks the schedule exactly;
// only the horizon (or a lifecycle Stop) retires unserved arrivals.
func (d *tenantDriver) issue() {
	for d.inFlight < d.window && d.eng.Now() < d.horizon {
		if d.paced {
			if d.nextIssue >= d.horizon {
				return
			}
			if now := d.eng.Now(); now < d.nextIssue {
				d.arm(d.nextIssue)
				return
			}
		}
		addr, write := d.nextOp()
		d.inFlight++
		if d.resilient {
			d.submitOp(addr, write)
		} else {
			done := d.onRead
			if write {
				done = d.onWr
			}
			d.port.Submit(mem.Request{Addr: addr, Size: d.size, Write: write}, done)
		}
		if d.paced {
			// The absolute schedule: advance from the previous arrival
			// instant, never from Now() — re-basing here is the pacing
			// drift this driver's stall tests pin.
			d.advance()
		}
	}
}

// advance moves nextIssue one arrival along the tenant's rate curve.
func (d *tenantDriver) advance() {
	switch {
	case d.phases != nil:
		d.nextIssue += sim.Time(d.phaseInterval(d.nextIssue))
	case d.burstMean > 0:
		d.nextIssue = d.burstNext(d.nextIssue)
	default:
		d.nextIssue += sim.Time(d.interval)
	}
}

// phaseInterval evaluates the arrival spacing of the cyclic phase
// script at schedule time t (linear interpolation across ramps).
func (d *tenantDriver) phaseInterval(t sim.Time) sim.Duration {
	off := sim.Duration(t-d.startAt) % d.cycle
	for _, s := range d.phases {
		if off < s.start+s.dur {
			r := s.r0
			if s.r1 != s.r0 {
				r += (s.r1 - s.r0) * float64(off-s.start) / float64(s.dur)
			}
			return ratePacing(r)
		}
	}
	return ratePacing(d.phases[len(d.phases)-1].r1)
}

// burstNext advances the arrival schedule through the 2-state MMPP:
// within a state arrivals space at the state's interval; crossing a
// state boundary re-draws the dwell and continues in the other state
// (a silent idle state just skips to its end). Bounded by the horizon
// so a long silent tail cannot spin the dwell walk forever.
func (d *tenantDriver) burstNext(t sim.Time) sim.Time {
	for {
		if t >= d.horizon {
			return t
		}
		for t >= d.stateEnd {
			d.inBurst = !d.inBurst
			mean := d.idleMean
			if d.inBurst {
				mean = d.burstMean
			}
			d.stateEnd += expDwell(d.paceRNG, mean)
		}
		iv := d.idleIv
		if d.inBurst {
			iv = d.burstIv
		}
		if iv == 0 || t+sim.Time(iv) > d.stateEnd {
			// No arrival fits before the state flips; resume the walk
			// at the boundary.
			t = d.stateEnd
			continue
		}
		return t + sim.Time(iv)
	}
}

// expDwell draws an exponential state dwell with the given mean (ps),
// clamped to the kernel clock.
func expDwell(rng *sim.RNG, mean float64) sim.Time {
	dw := sim.Time(math.Round(-mean * math.Log(1-rng.Float64())))
	if dw < 1 {
		dw = 1
	}
	return dw
}

// phaseSeg is one lowered piece of a tenant's cyclic rate curve, in
// aggregate (tenant-level) MRPS.
type phaseSeg struct {
	start  sim.Duration // offset of the segment within the cycle
	dur    sim.Duration
	r0, r1 float64
}

// lowerPhases lowers the tenant's phase script to aggregate-rate
// segments plus the cycle length.
func lowerPhases(t Tenant) ([]phaseSeg, sim.Duration) {
	ports := float64(t.Ports)
	ph := t.Inject.Phases
	segs := make([]phaseSeg, len(ph))
	var off sim.Duration
	for i, p := range ph {
		r0 := p.RateMRPS * ports
		r1 := r0
		if p.Ramp {
			r1 = ph[(i+1)%len(ph)].RateMRPS * ports
		}
		segs[i] = phaseSeg{start: off, dur: p.Duration, r0: r0, r1: r1}
		off += p.Duration
	}
	return segs, off
}

func (d *tenantDriver) done(r mem.Result, write bool) {
	d.inFlight--
	if d.measuring {
		if r.Err {
			// Errored completions count — on this retry-less path the
			// first error is also the final one the client saw.
			d.errs++
			d.failed++
		} else {
			wire := d.wireRead
			if write {
				wire = d.wireWrite
			}
			d.mon.Record(write, r, wire, uint64(d.size))
		}
	}
	if d.rmw && !write && !r.Err {
		d.rmwPending.Push(r.Req.Addr)
	}
	d.issue()
}

// newOp draws a pooled clientOp with its closures prebuilt.
func (d *tenantDriver) newOp() *clientOp {
	op := d.opFree
	if op == nil {
		op = &clientOp{d: d}
		op.retry.op = op
		op.timeout.op = op
		op.fn = func(r mem.Result) { op.complete(r) }
	} else {
		d.opFree = op.next
	}
	return op
}

// submitOp issues one logical request on the resilient path.
func (d *tenantDriver) submitOp(addr uint64, write bool) {
	op := d.newOp()
	op.addr, op.write = addr, write
	op.first = d.eng.Now()
	op.attempts, op.finished = 0, false
	if d.deadline > 0 {
		op.refs++
		d.eng.ScheduleHandler(d.deadline, &op.timeout)
	}
	op.refs++
	d.port.Submit(mem.Request{Addr: addr, Size: d.size, Write: write}, op.fn)
}

// release returns the op to the pool once nothing references it.
func (op *clientOp) release() {
	if op.refs != 0 {
		return
	}
	op.next = op.d.opFree
	op.d.opFree = op
}

// finishOutcome frees the window slot after a final outcome and backs
// the driver's issue loop.
func (op *clientOp) finishOutcome() {
	op.finished = true
	d := op.d
	d.inFlight--
	op.release()
	d.issue()
}

// complete handles a backend completion: success records end-to-end
// latency (from the first submission, so backoff time is visible in
// the tail), an error retries with exponential backoff until the
// budget runs out, then surfaces as failed.
func (op *clientOp) complete(r mem.Result) {
	op.refs--
	d := op.d
	if op.finished {
		// Abandoned at the deadline: the late completion is dropped.
		op.release()
		return
	}
	if r.Err {
		if d.measuring {
			d.errs++
		}
		if op.attempts < d.maxRetries {
			op.attempts++
			if d.measuring {
				d.retries++
			}
			// Exponential backoff: base, 2x base, 4x base, ...
			op.refs++
			d.eng.ScheduleHandler(d.backoff<<(op.attempts-1), &op.retry)
			return
		}
		if d.measuring {
			d.failed++
		}
		op.finishOutcome()
		return
	}
	if d.measuring {
		r.Submit = op.first
		wire := d.wireRead
		if op.write {
			wire = d.wireWrite
		}
		d.mon.Record(op.write, r, wire, uint64(d.size))
	}
	if d.rmw && !op.write {
		d.rmwPending.Push(r.Req.Addr)
	}
	op.finishOutcome()
}

// fireRetry resubmits after the backoff delay (unless the op was
// abandoned while waiting).
func (op *clientOp) fireRetry() {
	op.refs--
	d := op.d
	if op.finished {
		op.release()
		return
	}
	op.refs++
	d.port.Submit(mem.Request{Addr: op.addr, Size: d.size, Write: op.write}, op.fn)
}

// fireTimeout abandons the op at its deadline: the window slot is
// freed so the tenant makes forward progress, and whatever completion
// or retry is still pending dissolves on arrival.
func (op *clientOp) fireTimeout() {
	op.refs--
	d := op.d
	if op.finished {
		op.release()
		return
	}
	op.finished = true
	if d.measuring {
		d.abandoned++
	}
	d.inFlight--
	op.release()
	d.issue()
}

package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// The fault-injection and resilience family: for each backend, a
// fault-intensity ladder (transient link-error rate crossed with
// stochastic zone outages) measured through retrying, deadlined
// clients — goodput, degradation accounting, availability and the
// read tails the retries inflate. The chain variant adds an
// outage-window timeline (a scripted mid-run cube failure and repair,
// sliced in time to show the throughput dip and post-repair recovery)
// and a chain-vs-ring comparison of the same outage, quantifying the
// ring's package-level reroute claim from Section II-B at the
// scenario level rather than the single-access probe of ext-chain.

// faultSweepConfig pins one backend's ladder shape.
type faultSweepConfig struct {
	backend string
	label   string
}

var faultSweepConfigs = []faultSweepConfig{
	{"hmc", "1 cube, 4 ports"},
	{"ddr4", "2 channels, 4 ports"},
}

// faultChainConfig is the chain ladder, the first grid of
// ext-fault-chain.
var faultChainConfig = faultSweepConfig{"chain", "4 cubes, 4 ports"}

// faultRungs is the fault-intensity ladder every backend climbs: a
// clean rung (resilience armed, nothing injected), then transient
// CRC-retry rates correlated with stochastic zone outage pressure
// (shorter MTBF, longer MTTR as the rung rises). Rates are per
// request; MTBF/MTTR are per zone, exponential, seeded.
var faultRungs = []struct {
	label string
	plan  string
}{
	{"clean", ""},
	{"light", "rate=0.001,mtbf=400us,mttr=10us"},
	{"moderate", "rate=0.01,mtbf=200us,mttr=20us"},
	{"harsh", "rate=0.05,mtbf=100us,mttr=30us"},
}

// faultSpec is the common cell workload: four closed-loop read ports
// over the whole address space, so errors, retries and outage windows
// show up directly in the read tails.
func faultSpec(backend string) scenario.Spec {
	s := familySpec("fl-"+backend, backend, scenario.Tenant{Name: "app", Ports: 4, Mix: "ro", Size: 128})
	if backend == "ddr4" {
		s.Channels = 2
	}
	return s
}

// faultCell arms injection and tail collection on top of the
// experiment's fidelity windows, replacing any caller overlay: the
// family is always injected, like ext-thermal is always closed-loop.
func faultCell(o Options, spec scenario.Spec, fl scenario.Faults) cell {
	c := newCell(o, spec)
	c.opts.Faults = fl
	c.opts.Tail = true
	return c
}

var faultSweepNotes = []string{
	"transient rate stretches completions by one CRC-retransmission round trip (never an error); availability moves only when a zone outage errors requests past the retry budget",
	"clients retry errored requests up to 3 times with exponential backoff and abandon past a 20 us deadline; availability = successes/(successes+failed+abandoned)",
	"zone outages draw exponential MTBF/MTTR per zone from the run seed; tails from log-bucketed read round-trip histograms, measured window only",
}

// faultFamily is one backend's intensity ladder: every rung shares a
// client policy of bounded retries with the backend's default backoff
// and a deadline long past the healthy tails, so only requests stuck
// against a downed zone are abandoned. Each row carries the goodput,
// the degradation ledger and the read tails.
func faultFamily(c faultSweepConfig) rowFamily {
	return rowFamily{
		id:    "ext-fault-" + c.backend,
		name:  fmt.Sprintf("Fault injection: availability and tails vs error rate (%s)", c.label),
		title: fmt.Sprintf("Fault Injection Sweep (%s)", c.backend),
		grid:  fmt.Sprintf("Fault-intensity ladder, closed-loop 128 B reads, %s", c.label),
		cols: []string{"Rung", "Plan", "Goodput MRPS", "Raw GB/s", "Errors",
			"Retries", "Abandoned", "Failed", "Avail %", "n", "p50 ns", "p99 ns", "p99.9 ns"},
		notes: faultSweepNotes,
		cells: func(o Options) []cell {
			var cells []cell
			for _, rung := range faultRungs {
				fl := scenario.Faults{Plan: rung.plan, MaxRetries: 3, Deadline: 20 * sim.Microsecond}
				fc := faultCell(o, faultSpec(c.backend), fl)
				fc.label = rung.label
				cells = append(cells, fc)
			}
			return cells
		},
		row: func(c cell, res scenario.Result) []string {
			plan, tot := c.opts.Faults.Plan, res.Total
			if plan == "" {
				plan = "-"
			}
			return append([]string{c.label, plan, f1(tot.GoodputMRPS), f2(tot.RawGBps),
				fmt.Sprint(tot.Errors), fmt.Sprint(tot.Retries), fmt.Sprint(tot.Abandoned),
				fmt.Sprint(tot.Failed), f2(tot.Availability() * 100)}, hist(tot.ReadHistNs, 50, 99, 99.9)...)
		},
	}
}

const outageSlices = 8

// outagePlan scripts the timeline's failure: cube 2 dies 3/8 into the
// measured window and is repaired at 6/8, over a light transient
// rate. Times are computed from the fidelity windows so the outage
// lands inside the measured window at every fidelity.
func outagePlan(o Options) string {
	fail := int64(o.Warmup + 3*o.Measure/8)
	repair := int64(o.Warmup + 6*o.Measure/8)
	return fmt.Sprintf("rate=0.005,fail=2@%dps,repair=2@%dps", fail, repair)
}

// runFaultChain runs the chain variant: the ladder, then the outage
// timeline as prefix horizons of one run, then the same scripted
// outage on a ring.
func runFaultChain(o Options) (Report, error) {
	ladder, err := faultFamily(faultChainConfig).table(o)
	if err != nil {
		return Report{}, err
	}

	// A visible backoff makes the outage cost slot time: a request
	// stuck against the dead half holds its window slot through three
	// backed-off retries (~11 us) instead of failing at wire speed, so
	// the goodput dip in the timeline reflects real head-of-line loss.
	fl := scenario.Faults{
		Plan:       outagePlan(o),
		MaxRetries: 3,
		Backoff:    sim.Microsecond,
		Deadline:   20 * sim.Microsecond,
	}
	runs, err := prefixRuns(o, faultCell(o, faultSpec("chain"), fl), outageSlices)
	if err != nil {
		return Report{}, err
	}
	tl := Grid{
		Title: "Outage timeline: cube 2 fails 3/8 in, repaired at 6/8 (4-cube chain)",
		Cols: []string{"Slice", "Window us", "Goodput MRPS", "Reads", "Errors",
			"Retries", "Failed", "Outage"},
	}
	sliceSecs := (o.Measure / outageSlices).Seconds()
	var prev scenario.TenantStats
	for i, r := range runs {
		cur := r.Total
		reads := cur.Reads - prev.Reads
		mark := ""
		if i+1 > 3*outageSlices/8 && i < 6*outageSlices/8 {
			mark = "down"
		}
		tl.AddRow(fmt.Sprint(i+1),
			fmt.Sprintf("%.1f-%.1f", o.Measure.Microseconds()*float64(i)/outageSlices,
				o.Measure.Microseconds()*float64(i+1)/outageSlices),
			f1(float64(reads)/sliceSecs/1e6), fmt.Sprint(reads), fmt.Sprint(cur.Errors-prev.Errors),
			fmt.Sprint(cur.Retries-prev.Retries), fmt.Sprint(cur.Failed-prev.Failed), mark)
		prev = cur
	}

	var topos []cell
	for _, topo := range []string{"chain", "ring"} {
		spec := faultSpec("chain")
		spec.Name = "fl-" + topo + "-outage"
		spec.Topology = topo
		topos = append(topos, faultCell(o, spec, fl))
	}
	res, err := runCells(o, topos)
	if err != nil {
		return Report{}, err
	}
	tp := Grid{
		Title: "Same outage, chain vs ring wiring",
		Cols: []string{"Topology", "Goodput MRPS", "Reads", "Errors", "Failed",
			"Avail %", "p99 ns"},
	}
	for i, r := range res {
		tot := r.Total
		p99 := 0.0
		if tot.ReadHistNs != nil {
			p99 = tot.ReadHistNs.Percentile(99)
		}
		tp.AddRow(topos[i].spec.Topology, f1(tot.GoodputMRPS), fmt.Sprint(tot.Reads),
			fmt.Sprint(tot.Errors), fmt.Sprint(tot.Failed), f2(tot.Availability()*100), f0(p99))
	}
	notes := append([]string{
		"timeline slices difference cumulative counters across prefix horizons of one deterministic run: goodput dips while cube 2 is down and recovers after repair",
		"a chain severs cubes 2 and 3 when cube 2 dies (half the address space errors); a ring reroutes around the failed package and loses only cube 2's quarter",
	}, faultSweepNotes...)
	return Report{
		ID:    "ext-fault-chain",
		Title: "Fault Injection Sweep, Outage Timeline and Ring Reroute (chain)",
		Grids: []Grid{ladder, tl, tp},
		Notes: notes,
	}, nil
}

package experiments

import (
	"fmt"

	"hmcsim/internal/hmc"
	"hmcsim/internal/scenario"
)

// The closed-loop thermal feedback family: for each backend, an
// open-loop write-rate ladder crossed with the strongest and weakest
// Table III cooling environments, reporting where the throttle
// controller engages and what the oscillating derate levels cost in
// achieved throughput and write-latency tails; plus a thermal-aware
// vs naive tenant placement comparison on a chained system, where the
// per-hop cooling shadow makes the same hot set cheaper on an
// upstream cube. The open-loop figures (9-12) compute temperature
// from measured bandwidth after the fact; this family runs the loop
// the other way, letting temperature push back on the traffic while
// it flows.

// thermalSweepConfig pins one backend's sweep: the injector width and
// the per-port write-rate ladder, chosen so the bottom rung idles
// below every derate threshold and the top rung is admission-limited
// (offered past the backend's service rate, so the loop throttles a
// saturated device rather than a trickle).
type thermalSweepConfig struct {
	backend string
	label   string
	ports   int
	// perPortMRPS is the offered open-loop write arrival rate ladder,
	// per port, in million requests per second.
	perPortMRPS []float64
}

var thermalSweepConfigs = []thermalSweepConfig{
	{"hmc", "1 cube, 4 ports", 4, []float64{1, 8, 40}},
	{"ddr4", "1 channel, 4 ports", 4, []float64{1, 8, 40}},
	{"chain", "4 cubes, 4 ports", 4, []float64{1, 8, 40}},
}

// thermalCoolings brackets Table III: the strongest active cooling
// and the weakest passive one.
var thermalCoolings = []string{"Cfg1", "Cfg4"}

// thermalCell closes the feedback loop under cooling on top of the
// experiment's fidelity windows; the family is always closed-loop.
func thermalCell(o Options, spec scenario.Spec, cooling string) cell {
	c := newCell(o, spec)
	c.opts.Thermal, c.opts.Cooling = true, cooling
	return c
}

// zoneSummary folds a thermal run's zones: the hottest zone's peak,
// index, final derate level and derated sample share, and the
// controller transitions summed over all zones.
type zoneSummary struct {
	peakC               float64
	zone, level         int
	levelUps, shutdowns uint64
	throttledPct        float64
}

func hottestZone(res scenario.Result) zoneSummary {
	var z zoneSummary
	for i, s := range res.Thermal.Zones {
		if s.MaxC > z.peakC {
			z.peakC, z.zone = s.MaxC, i
			z.level, z.throttledPct = s.Level, s.ThrottledFrac*100
		}
		z.levelUps += s.LevelUps
		z.shutdowns += s.Shutdowns
	}
	return z
}

// thermalFamily is one backend's (cooling x rate) grid of uniform
// 128 B writes injected open-loop (writes are the paper's hottest
// mix, and the power model's write path is what the leakage fixed
// point feeds back into): one row per cell with the controller's
// trajectory and the tails it inflates.
func thermalFamily(c thermalSweepConfig) rowFamily {
	return rowFamily{
		id:    "ext-thermal-" + c.backend,
		name:  fmt.Sprintf("Thermal feedback sweep: write rate x cooling (%s)", c.label),
		title: fmt.Sprintf("Thermal Feedback Sweep (%s)", c.backend),
		grid:  fmt.Sprintf("Closed-loop throttling, open-loop 128 B writes, %s", c.label),
		cols: []string{"Cooling", "Offered MRPS", "Achieved MRPS", "Raw GB/s",
			"Peak degC", "Level", "Level-ups", "Shutdowns", "Rejected",
			"Throttled %", "n", "p99 ns", "p99.9 ns"},
		notes: []string{
			"temperatures advance a lumped-RC model from live backend counters each sample; the controller derates one level per sample past each threshold and recovers with hysteresis",
			"level-ups and shutdowns count controller transitions across the whole run (warmup included — the device heats while it warms); peak/level/throttled% are the hottest zone's",
			"RC dynamics are compressed into sim time (temperatures real, clock accelerated); p99/p99.9 from log-bucketed write round-trip histograms, measured window only",
		},
		cells: func(o Options) []cell {
			var cells []cell
			for _, cooling := range thermalCoolings {
				for _, rate := range c.perPortMRPS {
					spec := familySpec(fmt.Sprintf("th-%s-%g", c.backend, rate), c.backend, scenario.Tenant{
						Name: "heat", Ports: c.ports, Mix: "wo", Size: 128,
						Inject: scenario.Injection{Mode: "open", RateMRPS: rate},
					})
					cells = append(cells, thermalCell(o, spec, cooling))
				}
			}
			return cells
		},
		row: func(c cell, res scenario.Result) []string {
			t, z := c.spec.Tenants[0], hottestZone(res)
			return append([]string{c.opts.Cooling, f1(t.Inject.RateMRPS * float64(t.Ports)),
				f1(res.Total.MRPS), f2(res.Total.RawGBps), f1(z.peakC), fmt.Sprint(z.level),
				fmt.Sprint(z.levelUps), fmt.Sprint(z.shutdowns), fmt.Sprint(res.Thermal.Rejected),
				f1(z.throttledPct)}, hist(res.Total.WriteHistNs, 99, 99.9)...)
		},
	}
}

// placementCases contrast the placement experiment's two layouts: the
// chain's per-hop cooling shadow makes downstream cubes strictly
// worse hosts for a hot working set. "naive" lands the hotspot
// tenant's hot set on the last cube (packed from the top of the
// address space); "aware" rotates it onto cube 0, the best-cooled.
var placementCases = []struct {
	name   string
	offset uint64 // hotspot tenant's OffsetBytes
}{
	{"naive", 3 * hmc.Geometries(hmc.HMC11).SizeBytes},
	{"aware", 0},
}

// placementSpec is the contended system both layouts share: a hotspot
// write tenant (the heat source under placement) alongside a uniform
// read tenant spread over the whole chain.
func placementSpec(offset uint64) scenario.Spec {
	return familySpec("th-placement", "chain",
		scenario.Tenant{
			Name: "hot", Ports: 4, Mix: "wo", Size: 128,
			Access: scenario.Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.95, OffsetBytes: offset},
		},
		scenario.Tenant{
			Name: "scan", Ports: 2, Mix: "ro", Size: 128,
			Inject: scenario.Injection{Mode: "open", RateMRPS: 2},
		},
	)
}

// runPlacement runs both layouts under Cfg3 — strong enough that the
// well-placed layout only derates, weak enough that the naive one
// oscillates through shutdown — and renders the system-level thermal
// outcome of each layout, then the per-tenant service each delivered.
func runPlacement(o Options) (Report, error) {
	var cells []cell
	for _, pc := range placementCases {
		cells = append(cells, thermalCell(o, placementSpec(pc.offset), "Cfg3"))
	}
	res, err := runCells(o, cells)
	if err != nil {
		return Report{}, err
	}
	sys := Grid{
		Title: "Placement vs thermal outcome (4-cube chain, Cfg3)",
		Cols: []string{"Placement", "Hot cube", "Peak degC", "Level-ups",
			"Shutdowns", "Rejected", "Throttled %", "Total MRPS", "Raw GB/s"},
	}
	ten := Grid{
		Title: "Per-tenant service under each placement",
		Cols:  []string{"Placement", "Tenant", "MRPS", "Lat mean ns", "p99 ns", "p99.9 ns"},
	}
	for i, pc := range placementCases {
		r, z := res[i], hottestZone(res[i])
		sys.AddRow(pc.name, fmt.Sprint(z.zone), f1(z.peakC),
			fmt.Sprint(z.levelUps), fmt.Sprint(z.shutdowns),
			fmt.Sprint(r.Thermal.Rejected), f1(z.throttledPct),
			f1(r.Total.MRPS), f2(r.Total.RawGBps))
		for _, ts := range r.Tenants {
			sum, h := ts.WriteLatencyNs, ts.WriteHistNs
			if ts.ReadHistNs != nil && ts.ReadHistNs.N() > 0 {
				sum, h = ts.ReadLatencyNs, ts.ReadHistNs
			}
			q := hist(h, 99, 99.9)
			mean := "-"
			if q[0] != "-" {
				mean = f0(sum.Mean())
			}
			ten.AddRow(pc.name, ts.Name, f1(ts.MRPS), mean, q[1], q[2])
		}
	}
	return Report{
		ID:    "ext-thermal-placement",
		Title: "Thermal-Aware Tenant Placement (4-cube chain)",
		Grids: []Grid{sys, ten},
		Notes: []string{
			"naive packs the hotspot tenant's hot set onto the last cube of the chain — downstream in the cooling shadow (shared resistance scaled 1 + 0.15/hop); aware rotates it onto cube 0",
			"the workload is identical in both layouts; only the hot set's home cube moves, so the thermal delta is pure placement",
		},
	}, nil
}

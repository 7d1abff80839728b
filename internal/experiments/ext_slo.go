package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// The QoS/SLO characterization family: for each backend, two
// service classes (a latency-sensitive "gold" tenant and a throughput
// "bulk" tenant) ride a shared phase-scripted rate ladder that climbs
// from deep unsaturation to past the service knee. The per-phase grid
// differences cumulative SLO counters across prefix horizons of one
// deterministic run, so the SLO-met fraction is shown collapsing
// phase by phase as the offered load crosses the knee — the
// scenario-level restatement of the paper's load-latency curve in
// service-level terms.

// sloConfig pins one backend's ladder: the class widths, the shared
// per-port phase rates (the top rung exceeds the backend's closed-loop
// service rate, so the final phase saturates), and the per-class
// latency targets, set between the unsaturated and saturated tails so
// attainment is high early and collapses late.
type sloConfig struct {
	backend              string
	label                string
	goldPorts, bulkPorts int
	// perPortMRPS is the per-port arrival rate of each of the four
	// phases; both classes follow the same schedule.
	perPortMRPS [sloPhaseCount]float64
	// goldNs/bulkNs are the class latency targets in nanoseconds.
	goldNs, bulkNs float64
}

const sloPhaseCount = 4

var sloConfigs = []sloConfig{
	// 9 ports saturate one cube near 136 MRPS at 128 B; 9 x 16 = 144
	// offered in the last phase tops out past the knee. Unsaturated
	// reads land near 800 ns, saturated p99 near 4.7 us.
	{"hmc", "1 cube, 3+6 ports", 3, 6, [sloPhaseCount]float64{2, 8, 12, 16}, 1000, 3000},
	// One DDR4-2400 channel serves ~150 MRPS at 128 B; 4 x 40 = 160
	// crosses it. Healthy reads are ~80 ns, saturated ~1.1 us.
	{"ddr4", "1 channel, 2+2 ports", 2, 2, [sloPhaseCount]float64{2, 8, 24, 40}, 200, 800},
	// A 4-cube chain serves ~68 MRPS at 128 B; 4 x 20 = 80 offered.
	// Low-load reads span 460-920 ns by cube depth, saturated ~3.9 us.
	{"chain", "4 cubes, 2+2 ports", 2, 2, [sloPhaseCount]float64{1, 4, 16, 20}, 1000, 3000},
}

// sloSpec compiles the two-class workload: uniform 128 B reads, both
// tenants phased on the same four-rung ladder. The first phase
// stretches over the warmup so each later phase occupies exactly one
// measured quarter; no ramps, so on hmc the schedule lowers onto the
// native gups port path. The spec depends on the full fidelity
// windows and must be built once per experiment — the prefix-horizon
// slices below shorten only the options, never the schedule.
func sloSpec(c sloConfig, o Options) scenario.Spec {
	q := o.Measure / sloPhaseCount
	phases := make([]scenario.RatePhase, sloPhaseCount)
	for i, r := range c.perPortMRPS {
		phases[i] = scenario.RatePhase{RateMRPS: r, Duration: q}
	}
	phases[0].Duration = o.Warmup + q
	phases[sloPhaseCount-1].Duration = o.Measure - (sloPhaseCount-1)*q
	tenant := func(name string, ports int, targetNs float64) scenario.Tenant {
		return scenario.Tenant{
			Name:   name,
			Ports:  ports,
			Size:   128,
			Inject: scenario.Injection{Mode: "phased", Phases: phases},
			QoS:    scenario.QoS{Class: name, TargetNs: targetNs},
		}
	}
	return familySpec("slo-"+c.backend, c.backend,
		tenant("gold", c.goldPorts, c.goldNs), tenant("bulk", c.bulkPorts, c.bulkNs))
}

// runSLO runs one backend's family: one deterministic run measured
// at four prefix horizons, differenced into per-phase attainment —
// the ext-fault timeline technique applied to QoS counters. The phase
// schedule is anchored so measured quarter k runs entirely at ladder
// rate k. It renders the per-phase attainment collapse and the
// full-run class summary.
func runSLO(o Options, c sloConfig) (Report, error) {
	base := newCell(o, sloSpec(c, o))
	// The family scripts its own ladder and classes; a caller overlay
	// would replace the schedule under the slicing.
	base.opts.Traffic, base.opts.SLONs = "", 0
	runs, err := prefixRuns(o, base, sloPhaseCount)
	if err != nil {
		return Report{}, err
	}
	ph := Grid{
		Title: fmt.Sprintf("SLO attainment per phase, uniform 128 B reads, %s", c.label),
		Cols: []string{"Phase", "Rate/port MRPS", "Offered MRPS", "Achieved MRPS",
			"gold n", "gold met %", "bulk n", "bulk met %"},
	}
	ports := float64(c.goldPorts + c.bulkPorts)
	prev := make([]scenario.TenantStats, 2) // gold, bulk
	for i, r := range runs {
		sliceSecs := (o.Measure*sim.Duration(i+1)/sloPhaseCount -
			o.Measure*sim.Duration(i)/sloPhaseCount).Seconds()
		var done, met [2]uint64
		for ti, ts := range r.Tenants {
			done[ti] = ts.Reads + ts.Writes - prev[ti].Reads - prev[ti].Writes
			met[ti] = ts.SLOMet - prev[ti].SLOMet
		}
		pct := func(ti int) float64 {
			if done[ti] == 0 {
				return 0
			}
			return float64(met[ti]) / float64(done[ti]) * 100
		}
		rate := c.perPortMRPS[i]
		ph.AddRow(fmt.Sprint(i+1), f1(rate), f1(rate*ports), f1(float64(done[0]+done[1])/sliceSecs/1e6),
			fmt.Sprint(done[0]), f1(pct(0)), fmt.Sprint(done[1]), f1(pct(1)))
		prev = r.Tenants
	}
	cl := Grid{
		Title: "Full-run class summary",
		Cols:  []string{"Class", "Target ns", "n", "Met %", "Goodput MRPS", "p99 ns"},
	}
	for _, ts := range runs[sloPhaseCount-1].Tenants {
		cl.AddRow(ts.Class, f0(ts.SLOTargetNs), fmt.Sprint(ts.Reads+ts.Writes),
			f1(ts.SLOFraction()*100), f1(ts.GoodputMRPS), hist(ts.ReadHistNs, 99)[1])
	}
	return Report{
		ID:    "ext-slo-" + c.backend,
		Title: fmt.Sprintf("QoS Classes Across a Phased Load Ladder (%s)", c.backend),
		Grids: []Grid{ph, cl},
		Notes: []string{
			"both classes follow one phase-scripted per-port rate ladder whose last rung exceeds the service rate; met % counts successful completions at or under the class target (histogram-bucket granularity)",
			"per-phase rows difference cumulative SLO counters across prefix horizons of one deterministic run; completions are attributed to the phase they finish in, so a few boundary requests carry over",
			"the full-run summary aggregates the whole measured window, averaging the healthy phases with the collapsed ones",
		},
	}, nil
}

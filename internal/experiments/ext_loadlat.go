package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// loadLatConfig pins one backend's load-latency sweep: the injector
// width and the per-port rate ladder, chosen so the top rungs exceed
// the backend's closed-loop service rate (the sweep must cross
// saturation for the queueing knee to appear).
type loadLatConfig struct {
	backend string
	label   string
	ports   int
	// perPortMRPS is the offered open-loop arrival rate ladder, per
	// port, in million requests per second.
	perPortMRPS []float64
}

var loadLatConfigs = []loadLatConfig{
	// One cube behind the AC-510: 9 GUPS ports saturate near 136 MRPS
	// at 128 B, so 9 x 16 = 144 MRPS offered tops out past the knee.
	{"hmc", "1 cube, 9 ports", 9, []float64{0.25, 0.5, 1, 2, 4, 8, 12, 14, 16}},
	// One DDR4-2400 channel saturates near 150 MRPS at 128 B under
	// the deep per-channel window; 4 x 40 = 160 MRPS crosses it.
	{"ddr4", "1 channel, 4 ports", 4, []float64{1, 2, 4, 8, 16, 24, 32, 40}},
	// A 4-cube chain serves ~68 MRPS at 128 B; 4 x 20 = 80 offered.
	{"chain", "4 cubes, 4 ports", 4, []float64{0.25, 0.5, 1, 2, 4, 8, 16, 18, 20}},
}

// loadLatFamily is one backend's load-latency characterization: an
// open-loop injection-rate sweep of uniform 128 B reads from deep
// unsaturation to past saturation, reporting achieved throughput and
// the read-latency distribution (mean and tail percentiles) at every
// offered load. This is the paper's central characterization shape —
// low-load round trips at the bottom of the ladder, queueing
// inflation as the offered rate approaches the service rate — applied
// uniformly to all three memory systems.
func loadLatFamily(c loadLatConfig) rowFamily {
	return rowFamily{
		id:    "ext-loadlat-" + c.backend,
		name:  fmt.Sprintf("Load-latency sweep: open-loop rate vs tail latency (%s)", c.label),
		title: fmt.Sprintf("Load-Latency Characterization (%s)", c.backend),
		grid:  fmt.Sprintf("Open-loop load vs read latency, uniform 128 B reads, %s", c.label),
		cols: []string{"Offered MRPS", "Realized MRPS", "Achieved MRPS", "Raw GB/s",
			"n", "Mean ns", "p50 ns", "p90 ns", "p99 ns", "p99.9 ns"},
		notes: []string{
			"offered = requested open-loop injection rate, realized = the rate the kernel's rounded 1 ps pacing interval actually paces, achieved = completed requests; past the knee the injectors are admission-limited and latency reflects full queues",
			"percentiles from log-bucketed histograms (<=1.6% relative error above 31 ns); mean is exact; warmup completions excluded",
		},
		cells: func(o Options) []cell {
			var cells []cell
			for _, rate := range c.perPortMRPS {
				spec := familySpec(fmt.Sprintf("ll-%s-%g", c.backend, rate), c.backend, scenario.Tenant{
					Name: "probe", Ports: c.ports, Size: 128,
					Inject: scenario.Injection{Mode: "open", RateMRPS: rate},
				})
				cells = append(cells, newCell(o, spec))
			}
			return cells
		},
		row: func(c cell, res scenario.Result) []string {
			t, tot := c.spec.Tenants[0], res.Total
			q := hist(tot.ReadHistNs, 50, 90, 99, 99.9)
			mean := "-"
			if q[0] != "-" {
				mean = f0(tot.ReadLatencyNs.Mean())
			}
			return append([]string{f1(t.Inject.RateMRPS * float64(t.Ports)), f2(tot.OfferedMRPS),
				f1(tot.MRPS), f2(tot.RawGBps), q[0], mean}, q[1:]...)
		},
	}
}

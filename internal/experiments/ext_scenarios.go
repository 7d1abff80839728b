package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// Scenarios exposes the declarative workload library as registry
// entries: one experiment per spec of scenario.Library (id
// "scn-<name>") — the builtin shapes, the cross-backend specs, the
// partitioned systems compiled across the PDES shard mesh, and the
// production traffic models. Options.Shards picks how many goroutines
// drive each sharded spec's mesh without changing a byte of output.
func Scenarios() []Experiment {
	var out []Experiment
	for _, spec := range scenario.Library() {
		out = append(out, Experiment{
			ID:    "scn-" + spec.Name,
			Title: "Scenario: " + spec.Description,
			Run: func(o Options) (Report, error) {
				c := newCell(o, spec)
				res, err := scenario.Run(c.spec, c.opts)
				if err != nil {
					return Report{}, err
				}
				return res.Report(), nil
			},
		})
	}
	return out
}

// The two overviews tabulate a library slice side by side: every
// builtin spec, and every partitioned spec next to its partition
// shape.
var (
	scenarioOverview = rowFamily{
		id:    "scenarios",
		name:  "Scenario overview: every builtin spec side by side",
		title: "Scenario Overview",
		grid:  "Builtin scenario library: aggregate traffic per spec",
		cols:  []string{"Scenario", "Topology", "Tenants", "Raw GB/s", "Data GB/s", "MRPS", "Read lat avg ns"},
		notes: []string{"declarative workload scenarios compiled onto the simulated stack; see internal/scenario"},
		cells: libraryCells(scenario.Builtin),
		row: func(c cell, res scenario.Result) []string {
			topo := c.spec.Topology
			if topo == "" {
				topo = "single"
			}
			return append([]string{c.spec.Name, topo, fmt.Sprint(len(c.spec.Tenants))}, totals(res)...)
		},
	}
	shardedOverview = rowFamily{
		id:    "sharded",
		name:  "Sharded-system overview: every partitioned spec side by side",
		title: "Sharded-System Overview",
		grid:  "Partitioned-system library: aggregate traffic per spec",
		cols:  []string{"Scenario", "Backend", "Groups", "Tenants", "Raw GB/s", "Data GB/s", "MRPS", "Read lat avg ns"},
		notes: []string{
			"each spec's Groups field partitions the memory system across a PDES shard mesh (internal/sim.Mesh)",
			"Options.Shards picks worker goroutines per mesh; every value produces identical bytes",
		},
		cells: libraryCells(scenario.Sharded),
		row: func(c cell, res scenario.Result) []string {
			backend := c.spec.Backend
			if backend == "" {
				backend = "chain"
			}
			return append([]string{c.spec.Name, backend, fmt.Sprint(c.spec.Groups),
				fmt.Sprint(len(c.spec.Tenants))}, totals(res)...)
		},
	}
)

// libraryCells runs each spec of a library slice as one cell.
func libraryCells(specs func() []scenario.Spec) func(Options) []cell {
	return func(o Options) []cell {
		var cells []cell
		for _, s := range specs() {
			cells = append(cells, newCell(o, s))
		}
		return cells
	}
}

// totals renders a run's aggregate traffic: raw and data bandwidth,
// MRPS and the mean read latency.
func totals(res scenario.Result) []string {
	return []string{f2(res.Total.RawGBps), f2(res.Total.DataGBps), f1(res.Total.MRPS), meanNs(res.Total.ReadLatencyNs)}
}

package experiments

import (
	"context"
	"fmt"

	"hmcsim/internal/runner"
	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
	"hmcsim/internal/stats"
)

// The sweep layer: every scenario-backed experiment is a list of
// cells run by runCells and rendered into grids. Families with one
// row per cell are rowFamily values; the rest (the cross-backend
// matrix, the thermal placement study, the prefix-horizon timelines)
// call runCells or prefixRuns and lay out their own grids.

// cell is one simulation of a sweep: a spec and the options it runs
// under. label names the cell's row when neither spec nor options say
// it (a fault rung's name).
type cell struct {
	spec  scenario.Spec
	opts  scenario.Options
	label string
}

// newCell pairs spec with the experiment options. Sharded specs
// (Groups > 1) run open-loop even when the caller set Thermal for the
// rest of the registry: the feedback loop is single-engine, and
// scenario.Run rejects it on meshes.
func newCell(o Options, spec scenario.Spec) cell {
	so := scenario.Options{
		Warmup: o.Warmup, Measure: o.Measure, Seed: o.Seed, Shards: o.Shards,
		Thermal: o.Thermal, Cooling: o.Cooling, Faults: o.Faults,
		Traffic: o.Traffic, SLONs: o.SLONs,
	}
	if spec.Groups > 1 {
		so.Thermal, so.Cooling = false, ""
	}
	return cell{spec: spec, opts: so}
}

// runCells fans the cells out across the worker pool and returns
// their results in cell order. Every cell owns its own engine and
// derives all randomness from its seed, so the results are
// deterministic in the worker count. The first failing cell (an
// invalid overlay, say) cancels the rest and its error is returned.
func runCells(o Options, cells []cell) ([]scenario.Result, error) {
	cfg := runner.Config{Workers: o.Workers, Progress: o.Progress}
	return runner.Map(o.context(), cfg, len(cells), func(_ context.Context, i int) (scenario.Result, error) {
		return scenario.Run(cells[i].spec, cells[i].opts)
	})
}

// prefixRuns runs c measured for 1/k, 2/k, ..., k/k of its window.
// The engine is deterministic, so each horizon is byte for byte a
// prefix of the next: differencing cumulative counters between
// consecutive results yields exact per-slice traffic without any
// mid-run sampling hooks.
func prefixRuns(o Options, c cell, k int) ([]scenario.Result, error) {
	cells := make([]cell, k)
	for i := range cells {
		cells[i] = c
		cells[i].opts.Measure = c.opts.Measure * sim.Duration(i+1) / sim.Duration(k)
	}
	return runCells(o, cells)
}

// rowFamily is a one-grid experiment with one row per cell.
type rowFamily struct {
	id    string // registry id, also the report id
	name  string // registry listing title
	title string // report title
	grid  string // grid title
	cols  []string
	notes []string
	cells func(Options) []cell
	row   func(cell, scenario.Result) []string
}

func (f rowFamily) experiment() Experiment {
	return Experiment{ID: f.id, Title: f.name, Run: func(o Options) (Report, error) {
		g, err := f.table(o)
		if err != nil {
			return Report{}, err
		}
		return Report{ID: f.id, Title: f.title, Grids: []Grid{g}, Notes: f.notes}, nil
	}}
}

// table runs the family's cells and renders their rows.
func (f rowFamily) table(o Options) (Grid, error) {
	cells := f.cells(o)
	res, err := runCells(o, cells)
	if err != nil {
		return Grid{}, err
	}
	g := Grid{Title: f.grid, Cols: f.cols}
	for i, c := range cells {
		g.AddRow(f.row(c, res[i])...)
	}
	return g, nil
}

// familySpec builds a sweep cell's spec on one backend: hmc and ddr4
// are a single device, a chain is four cubes.
func familySpec(name, backend string, tenants ...scenario.Tenant) scenario.Spec {
	s := scenario.Spec{Name: name, Backend: backend, Tenants: tenants}
	if backend == "chain" {
		s.Topology = "chain"
		s.Cubes = 4
	}
	return s
}

// meanNs renders a latency summary's mean, or a dash when empty.
func meanNs(s stats.Summary) string {
	if s.N() == 0 {
		return "-"
	}
	return f0(s.Mean())
}

// hist renders h's sample count followed by its percentiles in ns,
// or all dashes when h recorded nothing.
func hist(h *stats.LogHist, ps ...float64) []string {
	out := make([]string, 1+len(ps))
	if h == nil || h.N() == 0 {
		for i := range out {
			out[i] = "-"
		}
		return out
	}
	out[0] = fmt.Sprint(h.N())
	for i, p := range ps {
		out[i+1] = f0(h.Percentile(p))
	}
	return out
}

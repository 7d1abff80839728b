package experiments

import (
	"fmt"

	"hmcsim/internal/scenario"
)

// matrixShapes and matrixBackends span the cross-backend matrix:
// workloads down, backends across.
var (
	matrixShapes   = []string{"uniform", "zipfian", "hotspot", "mixed-rw", "seqjump"}
	matrixBackends = []string{"hmc", "ddr4", "chain"}
)

// matrixSpec builds the matrix cell's scenario: the same four-port
// tenant shape compiled onto each backend (one HMC cube behind the
// AC-510 controller, one DDR4-2400 channel, a four-cube chain).
func matrixSpec(shape, backend string) scenario.Spec {
	t := scenario.Tenant{Name: "load", Ports: 4, Size: 128}
	switch shape {
	case "zipfian":
		t.Access = scenario.Access{Kind: "zipfian", ZipfTheta: 0.99}
	case "hotspot":
		t.Access = scenario.Access{Kind: "hotspot", HotFraction: 0.1, HotRate: 0.9}
	case "mixed-rw":
		t.Mix = "mix"
		t.ReadFraction = 0.7
	case "seqjump":
		t.Access = scenario.Access{Kind: "seqjump", JumpEvery: 32}
	}
	return familySpec(fmt.Sprintf("mx-%s-%s", shape, backend), backend, t)
}

// runBackends runs the matrix: every workload shape on every backend,
// under identical tenant drivers and measurement windows — the
// side-by-side methodology the mem.Backend abstraction exists for —
// and renders one bandwidth grid and one latency grid.
func runBackends(o Options) (Report, error) {
	var cells []cell
	for _, shape := range matrixShapes {
		for _, backend := range matrixBackends {
			cells = append(cells, newCell(o, matrixSpec(shape, backend)))
		}
	}
	res, err := runCells(o, cells)
	if err != nil {
		return Report{}, err
	}
	cols := []string{"Workload", "hmc (1 cube)", "ddr4 (1 ch)", "chain (4 cubes)"}
	bw := Grid{Title: "Data bandwidth (GB/s): 4-port tenant, 128 B, closed loop", Cols: cols}
	lat := Grid{Title: "Mean read latency (ns)", Cols: cols}
	for i, shape := range matrixShapes {
		bws, lats := []string{shape}, []string{shape}
		for _, r := range res[i*len(matrixBackends) : (i+1)*len(matrixBackends)] {
			bws = append(bws, f2(r.Total.DataGBps))
			lats = append(lats, meanNs(r.Total.ReadLatencyNs))
		}
		bw.AddRow(bws...)
		lat.AddRow(lats...)
	}
	return Report{ID: "ext-backends", Title: "Cross-Backend Comparison Matrix", Grids: []Grid{bw, lat},
		Notes: []string{
			"identical tenant drivers and windows on every backend (internal/mem); payload-only bandwidth shown so packet overhead does not flatter the wire numbers",
			"hmc bandwidth is shape-invariant (closed page, 256 banks); ddr4 runs near bus saturation under the deep per-channel window, with row hits shaving its latency on the hot shapes; the chain pays per-hop routing latency for 4x the capacity",
		}}, nil
}

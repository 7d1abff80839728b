package experiments

import (
	"fmt"

	"hmcsim/internal/fpga"
	"hmcsim/internal/gups"
	"hmcsim/internal/hmc"
	"hmcsim/internal/workloads"
)

// Extensions are experiments beyond the paper's figures: ablations of
// design choices the paper discusses (closed-page policy, link rate)
// and reproductions of related-work results it cites (the 53-66 %
// read-ratio link-efficiency optimum; HMC 2.0 projection).
func Extensions() []Experiment {
	return []Experiment{
		{"ext-readratio", "Raw bandwidth vs read ratio (related-work optimum)", runReport(ExtReadRatio)},
		{"ext-openpage", "Closed- vs open-page policy ablation", runReport(ExtOpenPage)},
		{"ext-linkrate", "Link rate ablation: 10 / 12.5 / 15 Gbps", runReport(ExtLinkRate)},
		{"ext-hmc20", "HMC 2.0 projection (32 vaults, 4 full-width links)", runReport(ExtHMC20)},
		{"ext-ddr", "DDR4 channel baseline comparison", runReport(ExtDDR)},
		{"ext-pim", "Processing-in-memory offload study", runReport(ExtPIM)},
		{"ext-chain", "Multi-cube chaining and fault tolerance", runReport(ExtChain)},
	}
}

// AllWithExtensions returns the paper registry followed by the
// extension experiments and the scenario-backed families: the
// scenario overview, the whole scenario library, the cross-backend
// matrix, the load-latency characterization, the sharded-system
// overview, the closed-loop thermal feedback family, the
// fault-injection resilience family, and the QoS/SLO
// characterization.
func AllWithExtensions() []Experiment {
	out := append(All(), Extensions()...)
	out = append(out, scenarioOverview.experiment())
	out = append(out, Scenarios()...)
	out = append(out, Experiment{"ext-backends", "Cross-backend matrix: the same workloads on hmc, ddr4 and chain", runBackends})
	for _, c := range loadLatConfigs {
		out = append(out, loadLatFamily(c).experiment())
	}
	out = append(out, shardedOverview.experiment())
	for _, c := range thermalSweepConfigs {
		out = append(out, thermalFamily(c).experiment())
	}
	out = append(out, Experiment{"ext-thermal-placement", "Thermal-aware vs naive tenant placement on a 4-cube chain", runPlacement})
	for _, c := range faultSweepConfigs {
		out = append(out, faultFamily(c).experiment())
	}
	out = append(out, Experiment{"ext-fault-chain", "Fault injection: intensity ladder, outage timeline and ring reroute (chain)", runFaultChain})
	for _, c := range sloConfigs {
		out = append(out, Experiment{
			ID:    "ext-slo-" + c.backend,
			Title: fmt.Sprintf("QoS classes: SLO attainment across a phased load ladder (%s)", c.label),
			Run:   func(o Options) (Report, error) { return runSLO(o, c) },
		})
	}
	return out
}

// ExtReadRatioData holds the read-ratio sweep.
type ExtReadRatioData struct {
	Ratios []float64
	// RawGBps[ratio index] for 128 B mixed traffic across 16 vaults.
	RawGBps []float64
	// BestRatio is the ratio with maximum raw bandwidth.
	BestRatio float64
}

// ExtReadRatio sweeps the read share of an independent read/write mix.
// Rosenfeld (HMCSim) and Schmidt (OpenHMC) report maximum link
// efficiency between 53 % and 66 % reads; the sweep locates the
// optimum on this model.
func ExtReadRatio(o Options) (*ExtReadRatioData, error) {
	d := &ExtReadRatioData{}
	for r := 0.0; r <= 1.001; r += 0.1 {
		d.Ratios = append(d.Ratios, r)
	}
	bws, err := parallelMap(o, len(d.Ratios), func(i int) float64 {
		res := gups.MustRun(gups.Config{
			Type:         gups.Mixed,
			ReadFraction: d.Ratios[i],
			Size:         128,
			Warmup:       o.Warmup,
			Measure:      o.Measure,
			Seed:         o.Seed,
		})
		return res.RawGBps
	})
	if err != nil {
		return nil, err
	}
	d.RawGBps = bws
	best := 0
	for i, bw := range bws {
		if bw > bws[best] {
			best = i
		}
	}
	d.BestRatio = d.Ratios[best]
	return d, nil
}

// Report renders the read-ratio sweep.
func (d *ExtReadRatioData) Report() Report {
	g := Grid{
		Title: "Raw bandwidth vs read ratio, 128 B mixed traffic, 16 vaults",
		Cols:  []string{"Read ratio", "Raw GB/s"},
	}
	for i, r := range d.Ratios {
		g.AddRow(fmt.Sprintf("%.0f%%", r*100), f2(d.RawGBps[i]))
	}
	return Report{ID: "ext-readratio", Title: "Read-Ratio Sweep", Grids: []Grid{g},
		Notes: []string{fmt.Sprintf("optimum at %.0f%% reads (related work reports 53-66%%)", d.BestRatio*100)}}
}

// ExtOpenPageData holds the page-policy ablation.
type ExtOpenPageData struct {
	// RawGBps[policy][mode] for 128 B single-bank reads — the
	// bank-limited point where row-buffer locality matters most (at
	// vault scale the 10 GB/s TSV ceiling hides any row-hit gain).
	Closed, Open map[gups.Mode]float64
	// RowHitRate is the open-page hit rate under linear access.
	RowHitRate float64
}

// ExtOpenPage quantifies what the closed-page policy gives up: with
// an open-page policy, linear accesses would enjoy row-buffer hits
// (and random accesses would not), re-creating the locality gap the
// paper's Figure 13 shows HMC deliberately avoids.
func ExtOpenPage(o Options) (*ExtOpenPageData, error) {
	d := &ExtOpenPageData{Closed: map[gups.Mode]float64{}, Open: map[gups.Mode]float64{}}
	bank1 := workloads.BankPattern(1).ZeroMask
	// A single port keeps the linear stream's row pairs adjacent at
	// the bank; multiple interleaved streams would thrash the row
	// buffer and mask the effect being measured.
	run := func(policy hmc.PagePolicy, mode gups.Mode) (gups.Result, error) {
		return gups.Run(gups.Config{
			Type:       gups.ReadOnly,
			Size:       128,
			Mode:       mode,
			ZeroMask:   bank1,
			PagePolicy: policy,
			Ports:      1,
			Warmup:     o.Warmup,
			Measure:    o.Measure,
			Seed:       o.Seed,
		})
	}
	for _, mode := range []gups.Mode{gups.Linear, gups.Random} {
		cl, err := run(hmc.ClosedPage, mode)
		if err != nil {
			return nil, err
		}
		op, err := run(hmc.OpenPage, mode)
		if err != nil {
			return nil, err
		}
		d.Closed[mode] = cl.RawGBps
		d.Open[mode] = op.RawGBps
	}
	// Hit rate probe: one engine, linear stream, open page.
	rig, err := gups.BuildRig(gups.Config{Ports: 1, Size: 128, Mode: gups.Linear,
		ZeroMask: bank1, PagePolicy: hmc.OpenPage, Seed: o.Seed})
	if err != nil {
		return nil, err
	}
	for _, p := range rig.Ports {
		p.Start()
	}
	rig.Eng.RunUntil(o.Measure)
	c := rig.Dev.Counters()
	if tot := c.RowHits + c.RowMisses; tot > 0 {
		d.RowHitRate = float64(c.RowHits) / float64(tot)
	}
	return d, nil
}

// Report renders the page-policy ablation.
func (d *ExtOpenPageData) Report() Report {
	g := Grid{
		Title: "Raw bandwidth (GB/s), single bank, single port, 128 B reads",
		Cols:  []string{"Mode", "Closed page (HMC)", "Open page (ablation)"},
	}
	for _, mode := range []gups.Mode{gups.Linear, gups.Random} {
		g.AddRow(mode.String(), f2(d.Closed[mode]), f2(d.Open[mode]))
	}
	return Report{ID: "ext-openpage", Title: "Page-Policy Ablation", Grids: []Grid{g},
		Notes: []string{fmt.Sprintf("open-page linear row-hit rate: %.0f%%; HMC chooses closed page for power at low temporal locality (Section II-C)", d.RowHitRate*100)}}
}

// ExtLinkRateData holds the lane-rate ablation.
type ExtLinkRateData struct {
	RatesGbps []float64
	RawGBps   []float64
	LatencyNs []float64
}

// ExtLinkRate sweeps the configurable SerDes lane rate (10, 12.5,
// 15 Gbps per Section II-B) at the 128 B read-only operating point.
func ExtLinkRate(o Options) (*ExtLinkRateData, error) {
	d := &ExtLinkRateData{RatesGbps: []float64{10, 12.5, 15}}
	type out struct{ bw, lat float64 }
	res, err := parallelMap(o, len(d.RatesGbps), func(i int) out {
		p := hmc.DefaultParams()
		p.Links.LaneGbps = d.RatesGbps[i]
		r := gups.MustRun(gups.Config{
			Type:      gups.ReadOnly,
			Size:      128,
			DevParams: &p,
			Warmup:    o.Warmup,
			Measure:   o.Measure,
			Seed:      o.Seed,
		})
		return out{bw: r.RawGBps, lat: r.ReadLatencyNs.Mean()}
	})
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		d.RawGBps = append(d.RawGBps, r.bw)
		d.LatencyNs = append(d.LatencyNs, r.lat)
	}
	return d, nil
}

// Report renders the link-rate ablation.
func (d *ExtLinkRateData) Report() Report {
	g := Grid{
		Title: "Raw bandwidth and high-load latency vs lane rate, 128 B ro",
		Cols:  []string{"Lane rate (Gbps)", "Peak (GB/s, Eq. 2)", "Measured raw (GB/s)", "Latency (ns)"},
	}
	for i, rate := range d.RatesGbps {
		lc := hmc.AC510Links()
		lc.LaneGbps = rate
		g.AddRow(f1(rate), f1(lc.PeakGBps()), f2(d.RawGBps[i]), f0(d.LatencyNs[i]))
	}
	return Report{ID: "ext-linkrate", Title: "Link-Rate Ablation", Grids: []Grid{g}}
}

// ExtHMC20Data holds the HMC 2.0 projection.
type ExtHMC20Data struct {
	// RawGBps[label] for the three request types on each device.
	HMC11, HMC20 map[string]float64
}

// ExtHMC20 projects the paper's headline measurements onto the
// HMC 2.0 configuration (32 vaults, four full-width links) that never
// shipped as hardware.
func ExtHMC20(o Options) (*ExtHMC20Data, error) {
	d := &ExtHMC20Data{HMC11: map[string]float64{}, HMC20: map[string]float64{}}
	type cell struct {
		gen hmc.Generation
		ty  gups.ReqType
		bw  float64
	}
	gens := []hmc.Generation{hmc.HMC11, hmc.HMC20}
	n := len(gens) * len(allTypes)
	cells, err := parallelMap(o, n, func(i int) cell {
		gen := gens[i/len(allTypes)]
		ty := allTypes[i%len(allTypes)]
		cfg := gups.Config{
			Generation: gen,
			Type:       ty,
			Size:       128,
			Warmup:     o.Warmup,
			Measure:    o.Measure,
			Seed:       o.Seed,
		}
		if gen == hmc.HMC20 {
			// Four full-width links and a host scaled to match: five
			// usable ports per hmc_node minus reserved ones, as on
			// the AC-510, would give ~18 generator ports.
			p := hmc.DefaultParams()
			p.Links = hmc.LinkConfig{Count: 4, Width: hmc.FullWidth, LaneGbps: 15}
			cfg.DevParams = &p
			fp := fpga.DefaultParams()
			fp.Ports = 18
			cfg.FPGAParams = &fp
			cfg.Ports = 18
		}
		return cell{gen: gen, ty: ty, bw: gups.MustRun(cfg).RawGBps}
	})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		if c.gen == hmc.HMC11 {
			d.HMC11[c.ty.String()] = c.bw
		} else {
			d.HMC20[c.ty.String()] = c.bw
		}
	}
	return d, nil
}

// Report renders the HMC 2.0 projection.
func (d *ExtHMC20Data) Report() Report {
	g := Grid{
		Title: "Raw bandwidth projection (GB/s), 128 B, 16-vault-equivalent distribution",
		Cols:  []string{"Type", "HMC 1.1 (2x half @15)", "HMC 2.0 (4x full @15)", "Speedup"},
	}
	for _, ty := range []string{"ro", "rw", "wo"} {
		sp := 0.0
		if d.HMC11[ty] > 0 {
			sp = d.HMC20[ty] / d.HMC11[ty]
		}
		g.AddRow(ty, f2(d.HMC11[ty]), f2(d.HMC20[ty]), f2(sp))
	}
	return Report{ID: "ext-hmc20", Title: "HMC 2.0 Projection", Grids: []Grid{g},
		Notes: []string{"HMC 2.0 hardware never shipped; this projects the calibrated model onto its Table I structure"}}
}

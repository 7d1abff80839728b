package experiments

import (
	"strings"
	"testing"

	"hmcsim/internal/gups"
)

// registryIDs is the full extended registry in order: the paper's
// artifacts, the gups-based extensions, then the scenario-backed
// families with the whole scn-* library grouped after the overview.
var registryIDs = strings.Fields(`
	table1 table2 table3 figure3 figure6 figure7 figure8 figure9 figure10
	figure11 figure12 figure13 figure14 figure15 figure16 figure17 figure18
	ext-readratio ext-openpage ext-linkrate ext-hmc20 ext-ddr ext-pim ext-chain
	scenarios
	scn-uniform scn-zipfian scn-hotspot scn-mixed-rw scn-seqjump scn-open-loop
	scn-tenants-4 scn-chain-4 scn-uniform-ddr4 scn-hotspot-ddr4 scn-tenants-4-ddr4
	scn-chain-16 scn-chain-16-remote scn-hmc-boards scn-ddr4-quad
	scn-burst scn-diurnal scn-churn
	ext-backends ext-loadlat-hmc ext-loadlat-ddr4 ext-loadlat-chain
	sharded
	ext-thermal-hmc ext-thermal-ddr4 ext-thermal-chain ext-thermal-placement
	ext-fault-hmc ext-fault-ddr4 ext-fault-chain
	ext-slo-hmc ext-slo-ddr4 ext-slo-chain`)

func TestExtensionsRegistry(t *testing.T) {
	if n := len(Extensions()); n != 7 {
		t.Fatalf("%d extensions, want 7", n)
	}
	all := AllWithExtensions()
	var got []string
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		got = append(got, e.ID)
	}
	if strings.Join(got, " ") != strings.Join(registryIDs, " ") {
		t.Fatalf("registry ids:\n got  %v\n want %v", got, registryIDs)
	}
}

// TestScenarioFamiliesRejectBadOverlay: an invalid caller overlay on a
// scenario-backed entry is an error, never a panic in a pool worker.
// The ext-fault-* family replaces the fault overlay with its own plans
// and so runs clean.
func TestScenarioFamiliesRejectBadOverlay(t *testing.T) {
	gupsBacked := map[string]bool{}
	for _, e := range append(All(), Extensions()...) {
		gupsBacked[e.ID] = true
	}
	for _, e := range AllWithExtensions() {
		if gupsBacked[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			o := fastOpts(2)
			o.Faults.Plan = "bogus=1"
			_, err := e.Run(o)
			if replaces := strings.HasPrefix(e.ID, "ext-fault-"); replaces && err != nil {
				t.Errorf("fault family failed under a replaced overlay: %v", err)
			} else if !replaces && err == nil {
				t.Error("invalid fault overlay accepted")
			}
		})
	}
}

// TestExtReadRatioOptimum reproduces the related-work claim the paper
// cites: link efficiency peaks at a mixed read ratio (53-66 % in
// Rosenfeld/Schmidt), beating both pure reads and pure writes.
func TestExtReadRatioOptimum(t *testing.T) {
	d, err := ExtReadRatio(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RawGBps) != len(d.Ratios) {
		t.Fatal("ragged sweep")
	}
	first, last := d.RawGBps[0], d.RawGBps[len(d.RawGBps)-1]
	best := 0.0
	for _, bw := range d.RawGBps {
		if bw > best {
			best = bw
		}
	}
	if best <= first || best <= last {
		t.Fatalf("no interior optimum: 0%%=%.2f best=%.2f 100%%=%.2f", first, best, last)
	}
	if d.BestRatio < 0.4 || d.BestRatio > 0.8 {
		t.Errorf("optimum at %.0f%% reads, want 40-80%% (related work: 53-66%%)", d.BestRatio*100)
	}
}

// TestExtOpenPageAblation: the ablation restores the locality gap the
// closed-page policy removes — open-page linear beats open-page
// random, while closed-page linear ~= closed-page random.
func TestExtOpenPageAblation(t *testing.T) {
	d, err := ExtOpenPage(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if d.Open[gups.Linear] <= d.Closed[gups.Linear] {
		t.Errorf("open-page linear (%.2f) not above closed-page linear (%.2f)",
			d.Open[gups.Linear], d.Closed[gups.Linear])
	}
	if d.RowHitRate < 0.3 {
		t.Errorf("linear open-page hit rate %.2f too low", d.RowHitRate)
	}
	// Random gains little from open page.
	gainRandom := d.Open[gups.Random] / d.Closed[gups.Random]
	gainLinear := d.Open[gups.Linear] / d.Closed[gups.Linear]
	if gainLinear <= gainRandom {
		t.Errorf("linear gain %.2f not above random gain %.2f", gainLinear, gainRandom)
	}
}

// TestExtLinkRateScaling: bandwidth scales with lane rate while the
// device-side limits keep it sublinear.
func TestExtLinkRateScaling(t *testing.T) {
	d, err := ExtLinkRate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RawGBps) != 3 {
		t.Fatal("missing rates")
	}
	if !(d.RawGBps[0] < d.RawGBps[1] && d.RawGBps[1] < d.RawGBps[2]) {
		t.Fatalf("bandwidth not increasing with lane rate: %v", d.RawGBps)
	}
	// 15 Gbps gives at most 1.5x the 10 Gbps point (link-bound).
	if r := d.RawGBps[2] / d.RawGBps[0]; r > 1.6 {
		t.Errorf("lane-rate scaling %.2f super-linear", r)
	}
}

// TestExtHMC20Projection: the unshipped HMC 2.0 outruns HMC 1.1 for
// every request type on its richer structure.
func TestExtHMC20Projection(t *testing.T) {
	d, err := ExtHMC20(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []string{"ro", "rw", "wo"} {
		if d.HMC20[ty] <= d.HMC11[ty] {
			t.Errorf("%s: HMC 2.0 (%.2f) not above HMC 1.1 (%.2f)", ty, d.HMC20[ty], d.HMC11[ty])
		}
	}
	// More links should roughly double the link-bound read point.
	if r := d.HMC20["ro"] / d.HMC11["ro"]; r < 1.5 || r > 3.0 {
		t.Errorf("ro speedup %.2f, want ~2", r)
	}
	if rep := d.Report(); len(rep.Grids) == 0 {
		t.Fatal("empty report")
	}
}

// TestExtDDRComparison: the baseline shows the trade the paper
// describes — HMC keeps bandwidth under random access while DDR4
// leans on row-buffer locality, and the HMC in-device latency is
// about twice a DDR closed-page access.
func TestExtDDRComparison(t *testing.T) {
	d, err := ExtDDR(Quick())
	if err != nil {
		t.Fatal(err)
	}
	hmcRatio := d.HMCRandomGBps / d.HMCLinearGBps
	ddrRatio := d.DDRRandomGBps / d.DDRLinearGBps
	if hmcRatio < 0.9 {
		t.Errorf("HMC random/linear = %.2f, want ~1 (closed page)", hmcRatio)
	}
	if ddrRatio > 0.8 {
		t.Errorf("DDR random/linear = %.2f, want well below 1 (open page)", ddrRatio)
	}
	if r := d.HMCInternalNs / d.DDRLatencyNs; r < 1.4 || r > 3.2 {
		t.Errorf("in-device/DDR latency ratio = %.2f, paper estimates ~2", r)
	}
	if d.HMCLatencyNs < 3*d.DDRLatencyNs {
		t.Errorf("HMC end-to-end (%.0f ns) should dwarf DDR (%.0f ns)", d.HMCLatencyNs, d.DDRLatencyNs)
	}
}

// TestExtPIMStudy: PIM wins big on dependent chains and pays a
// thermal price on streams.
func TestExtPIMStudy(t *testing.T) {
	d, err := ExtPIM(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if d.Chase.Speedup < 3 {
		t.Errorf("chase PIM speedup %.2f, want >3", d.Chase.Speedup)
	}
	if len(d.Stream.FailsAt) == 0 {
		t.Error("PIM stream fails nowhere; thermal price missing")
	}
	if rep := d.Report(); len(rep.Grids) != 2 {
		t.Fatal("PIM report incomplete")
	}
}

// TestExtChainStudy: chaining scales capacity linearly, keeps the
// host-hop bandwidth bound, and the ring survives a single failure.
func TestExtChainStudy(t *testing.T) {
	d, err := ExtChain(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if d.CapacityGB[len(d.CapacityGB)-1] != 32 {
		t.Errorf("8-cube capacity = %v GB, want 32", d.CapacityGB[len(d.CapacityGB)-1])
	}
	// Bandwidth does not scale with cubes (shared first hop).
	if d.DataGBps[3] > d.DataGBps[0]*1.5 {
		t.Errorf("bandwidth scaled with cubes (%v); the shared hop should bound it", d.DataGBps)
	}
	// Distance ordering in the 8-cube latency profile.
	for c := 1; c < len(d.PerCubeLatencyNs); c++ {
		if d.PerCubeLatencyNs[c] <= d.PerCubeLatencyNs[c-1] {
			t.Fatalf("per-cube latency not increasing: %v", d.PerCubeLatencyNs)
		}
	}
	if !d.RingSurvives {
		t.Error("ring did not survive a single cube failure")
	}
}

package experiments

import (
	"strings"
	"testing"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// fastOpts keeps the determinism runs cheap: the property under test
// is workers-independence, not measurement fidelity.
func fastOpts(workers int) Options {
	return Options{
		Warmup:  10 * sim.Microsecond,
		Measure: 30 * sim.Microsecond,
		Seed:    7,
		Workers: workers,
	}
}

// Identical seeds must yield byte-identical experiment output
// regardless of worker count: results are keyed by cell index and all
// randomness derives from (seed, cell), never from scheduling order.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	cases := []struct {
		id  string
		run func(Options) (Report, error)
	}{
		{"figure7", runReport(Figure7)},
		{"figure8", runReport(Figure8)},
	}
	for _, c := range cases {
		t.Run(c.id, func(t *testing.T) {
			serial, err := c.run(fastOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := c.run(fastOpts(8))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s: aligned-text output differs between Workers=1 and Workers=8", c.id)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s: CSV output differs between Workers=1 and Workers=8", c.id)
			}
			js, err := serial.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jp, err := parallel.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if js != jp {
				t.Errorf("%s: JSON output differs between Workers=1 and Workers=8", c.id)
			}
		})
	}
}

// Different seeds must actually change the measurement (guards against
// a seed that is silently ignored, which would make the determinism
// test above vacuous).
func TestSeedChangesOutput(t *testing.T) {
	a := fastOpts(0)
	b := fastOpts(0)
	b.Seed = a.Seed + 1
	ra, err := runReport(Figure7)(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := runReport(Figure7)(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.CSV() == rb.CSV() {
		t.Error("figure7 output identical across different seeds")
	}
}

// determinismFamilies selects every scenario-backed family's registry
// entries. Each family fans its cells across the pool (the sharded
// library: its shards across the mesh), and every entry must render
// byte-identically between Workers=1 and Workers=8 (Shards=1 and
// Shards=8) and replay exactly across runs, or the recorded goldens
// would be racy.
var determinismFamilies = map[string]struct {
	shards bool // vary Options.Shards instead of Options.Workers
	match  func(id string) bool
}{
	// The overview fans every builtin spec (seeded zipfian/hotspot
	// generators included).
	"scenario": {match: isID("scenarios")},
	// Open-loop injectors on all three backends.
	"loadlat": {match: hasPrefix("ext-loadlat-")},
	// The partition is part of the spec; Options.Shards only
	// schedules it.
	"shard": {shards: true, match: func(id string) bool {
		return id == "sharded" || isSpec(scenario.Sharded(), id)
	}},
	// (cooling x rate) closed loops of throttle decorator, RC runtime
	// and drivers, plus the placement study.
	"thermal": {match: hasPrefix("ext-thermal-")},
	// (shape x backend) cells, chain cells included.
	"backends": {match: isID("ext-backends")},
	// MMPP bursts, diurnal phase curves and tenant churn derive every
	// dwell and arrival instant from (seed, tenant index).
	"traffic": {match: func(id string) bool { return isSpec(scenario.Traffic(), id) }},
	// Prefix-horizon slices differenced into per-phase attainment.
	"slo": {match: hasPrefix("ext-slo-")},
	// Ladder rungs, outage-timeline horizons and the topology pair;
	// injector randomness is keyed by (seed, zone).
	"fault": {match: hasPrefix("ext-fault-")},
}

func isID(want string) func(string) bool { return func(id string) bool { return id == want } }

func hasPrefix(p string) func(string) bool {
	return func(id string) bool { return strings.HasPrefix(id, p) }
}

func isSpec(specs []scenario.Spec, id string) bool {
	for _, s := range specs {
		if id == "scn-"+s.Name {
			return true
		}
	}
	return false
}

// checkFamilyDeterminism runs each of the family's entries serially,
// in parallel, and in parallel again, comparing the rendered bytes.
func checkFamilyDeterminism(t *testing.T, family string) {
	fam := determinismFamilies[family]
	serialOpts, parallelOpts, knob := fastOpts(1), fastOpts(8), "Workers"
	if fam.shards {
		parallelOpts, knob = fastOpts(1), "Shards"
		parallelOpts.Shards = 8
	}
	ran := 0
	for _, e := range AllWithExtensions() {
		if !fam.match(e.ID) {
			continue
		}
		ran++
		t.Run(e.ID, func(t *testing.T) {
			serial, err := e.Run(serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := e.Run(parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Table() != parallel.Table() {
				t.Errorf("%s text differs between %s=1 and %s=8", e.ID, knob, knob)
			}
			if serial.CSV() != parallel.CSV() {
				t.Errorf("%s CSV differs between %s=1 and %s=8", e.ID, knob, knob)
			}
			replay, err := e.Run(parallelOpts)
			if err != nil {
				t.Fatal(err)
			}
			if parallel.Table() != replay.Table() {
				t.Errorf("%s not reproducible across runs at %s=8", e.ID, knob)
			}
		})
	}
	if ran == 0 {
		t.Fatalf("family %q selects no registry entries", family)
	}
}

// One entry point per family keeps each family selectable with -run
// (CI races the thermal, fault and shard families on their own).
func TestScenarioWorkerDeterminism(t *testing.T)      { checkFamilyDeterminism(t, "scenario") }
func TestLoadLatWorkerDeterminism(t *testing.T)       { checkFamilyDeterminism(t, "loadlat") }
func TestShardWorkerDeterminism(t *testing.T)         { checkFamilyDeterminism(t, "shard") }
func TestThermalWorkerDeterminism(t *testing.T)       { checkFamilyDeterminism(t, "thermal") }
func TestBackendMatrixWorkerDeterminism(t *testing.T) { checkFamilyDeterminism(t, "backends") }
func TestTrafficWorkerDeterminism(t *testing.T)       { checkFamilyDeterminism(t, "traffic") }
func TestSLOWorkerDeterminism(t *testing.T)           { checkFamilyDeterminism(t, "slo") }
func TestFaultWorkerDeterminism(t *testing.T)         { checkFamilyDeterminism(t, "fault") }

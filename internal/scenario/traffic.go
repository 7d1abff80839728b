package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hmcsim/internal/gups"
	"hmcsim/internal/sim"
)

// This file is the production traffic model layer: phase-scripted
// rate curves (with linear ramps and a compact diurnal preset),
// Markov-modulated bursty arrivals, and the compact grammar the CLIs
// accept for overlaying any of them onto a spec. The arrival
// discipline they all compile onto is the drivers' absolute arrival
// schedule (see driver.go): backpressure delays requests but never
// depresses offered load.

// ratePacing converts an aggregate arrival rate in MRPS to the
// kernel's picosecond pacing interval, rounding like the fixed-rate
// path so all modes realize rates the same way. Validate rejects
// rates whose interval would round below 1 ps, so the clamp here only
// guards mid-ramp float noise.
func ratePacing(aggMRPS float64) sim.Duration {
	iv := sim.Duration(math.Round(1000.0 / aggMRPS * float64(sim.Nanosecond)))
	if iv < 1 {
		iv = 1
	}
	return iv
}

// realizedMRPS is the aggregate rate the rounded pacing interval
// actually delivers.
func realizedMRPS(aggMRPS float64) float64 {
	if aggMRPS <= 0 {
		return 0
	}
	return 1e6 / float64(ratePacing(aggMRPS))
}

// OfferedMRPS is the tenant-aggregate open-loop arrival rate the
// kernel realizes once pacing intervals round to its picosecond
// clock: the reciprocal of the rounded interval for fixed rates, the
// cycle average for phase scripts (trapezoidal across ramps), and the
// dwell-weighted mean for burst mode. 0 for closed-loop tenants.
// Load-sweep reports show it beside the requested rate, so interval
// rounding is never silent.
func (t Tenant) OfferedMRPS() float64 {
	t = t.withDefaults()
	ports := float64(t.Ports)
	in := t.Inject
	switch in.Mode {
	case "open":
		return realizedMRPS(in.RateMRPS * ports)
	case "phased":
		var cycle, sum float64
		for i, p := range in.Phases {
			d := float64(p.Duration)
			cycle += d
			r := realizedMRPS(p.RateMRPS * ports)
			if p.Ramp {
				next := in.Phases[(i+1)%len(in.Phases)].RateMRPS
				r = (r + realizedMRPS(next*ports)) / 2
			}
			sum += d * r
		}
		if cycle == 0 {
			return 0
		}
		return sum / cycle
	case "burst":
		bd, id := float64(in.BurstDwell), float64(in.IdleDwell)
		if bd+id == 0 {
			return 0
		}
		return (bd*realizedMRPS(in.BurstMRPS*ports) + id*realizedMRPS(in.IdleMRPS*ports)) / (bd + id)
	}
	return 0
}

// DiurnalPhases builds a compact day/night rate script: a trough hold
// at lowMRPS, a morning ramp, a peak hold at highMRPS, and an evening
// ramp back down, cycling every period (the schedule is cyclic, so
// the last ramp lands on the first phase's trough).
func DiurnalPhases(period sim.Duration, lowMRPS, highMRPS float64) []RatePhase {
	q := period / 4
	return []RatePhase{
		{RateMRPS: lowMRPS, Duration: period - 3*q},
		{RateMRPS: lowMRPS, Duration: q, Ramp: true},
		{RateMRPS: highMRPS, Duration: q},
		{RateMRPS: highMRPS, Duration: q, Ramp: true},
	}
}

// validateInject checks the tenant's injection discipline: the
// mode-specific fields are present exactly when their mode is
// selected (one canonical spelling per traffic shape, so the cache
// encoding stays collision-free), and every configured rate stays
// within the kernel's picosecond pacing resolution instead of
// silently simulating a different rate.
func (t Tenant) validateInject() error {
	in := t.Inject
	if in.Mode != "phased" && len(in.Phases) > 0 {
		return fmt.Errorf("rate phases need injection mode \"phased\" (got %q)", in.Mode)
	}
	if in.Mode != "burst" && (in.BurstMRPS != 0 || in.IdleMRPS != 0 || in.BurstDwell != 0 || in.IdleDwell != 0) {
		return fmt.Errorf("burst rate/dwell fields need injection mode \"burst\" (got %q)", in.Mode)
	}
	switch in.Mode {
	case "closed":
		return nil
	case "open":
		if in.RateMRPS <= 0 {
			return fmt.Errorf("open-loop injection needs RateMRPS > 0")
		}
		return t.checkRate("RateMRPS", in.RateMRPS)
	case "phased":
		if len(in.Phases) == 0 {
			return fmt.Errorf("injection mode \"phased\" needs at least one rate phase")
		}
		for i, p := range in.Phases {
			if p.Duration <= 0 {
				return fmt.Errorf("rate phase %d needs Duration > 0", i)
			}
			if p.RateMRPS <= 0 {
				return fmt.Errorf("rate phase %d needs RateMRPS > 0", i)
			}
			if err := t.checkRate(fmt.Sprintf("phase %d rate", i), p.RateMRPS); err != nil {
				return err
			}
		}
		return nil
	case "burst":
		if in.BurstMRPS <= 0 {
			return fmt.Errorf("burst injection needs BurstMRPS > 0")
		}
		if in.IdleMRPS < 0 {
			return fmt.Errorf("burst injection needs IdleMRPS >= 0")
		}
		if in.BurstDwell <= 0 || in.IdleDwell <= 0 {
			return fmt.Errorf("burst injection needs mean BurstDwell and IdleDwell > 0")
		}
		if err := t.checkRate("BurstMRPS", in.BurstMRPS); err != nil {
			return err
		}
		if in.IdleMRPS > 0 {
			return t.checkRate("IdleMRPS", in.IdleMRPS)
		}
		return nil
	}
	return fmt.Errorf("unknown injection mode %q (want closed, open, phased or burst)", in.Mode)
}

// checkRate rejects per-port rates whose aggregate pacing interval
// would round below the kernel's 1 ps clock — the run would silently
// realize a different rate than requested.
func (t Tenant) checkRate(what string, mrps float64) error {
	agg := mrps * float64(t.Ports)
	if math.Round(1000.0/agg*float64(sim.Nanosecond)) < 1 {
		return fmt.Errorf("%s %g MRPS x %d ports is beyond the kernel's 1 ps pacing resolution (aggregate rate must stay <= 2e6 MRPS)", what, mrps, t.Ports)
	}
	return nil
}

// needsGenericDrivers reports whether any tenant uses a traffic
// feature the cycle-accurate gups.Port path cannot express: ramped
// phase curves, bursty arrivals, or lifecycle start/stop. The
// lowering rule in buildBoards then puts the tenants of an hmc spec
// with Groups == 1 on tenant drivers, as thermal and faults do;
// fixed-rate phase schedules lower natively onto
// gups.PortConfig.Schedule. Validate rejects these features on
// sharded hmc boards (Groups > 1), which keep the gups.Port loops.
func (s Spec) needsGenericDrivers() bool {
	for _, t := range s.Tenants {
		if t.Start != 0 || t.Stop != 0 || t.Inject.Mode == "burst" {
			return true
		}
		for _, p := range t.Inject.Phases {
			if p.Ramp {
				return true
			}
		}
	}
	return false
}

// portSchedule lowers a fixed-rate phase script onto the gups.Port
// step schedule (per-port pacing, like IssueInterval). Ramped phases
// never reach this path — buildBoards lowers them onto tenant drivers
// and Validate rejects them on sharded hmc — so a ramp here is an
// internal dispatch error.
func (t Tenant) portSchedule() ([]gups.RateStep, error) {
	if t.Inject.Mode != "phased" {
		return nil, nil
	}
	steps := make([]gups.RateStep, len(t.Inject.Phases))
	for i, p := range t.Inject.Phases {
		if p.Ramp {
			return nil, fmt.Errorf("scenario: tenant %q: ramped phases reached the gups.Port path (internal dispatch error)", t.Name)
		}
		steps[i] = gups.RateStep{Interval: ratePacing(p.RateMRPS), Duration: p.Duration}
	}
	return steps, nil
}

// applyTraffic overlays the Options-level traffic model and default
// SLO target onto the spec's tenants (the CLI surface): -traffic
// replaces every tenant's injection discipline (each keeps its
// Outstanding window), -slo-ns sets a latency target on every tenant
// without its own QoS. The overlaid spec then passes through Validate
// like any other.
func applyTraffic(s Spec, o Options) (Spec, error) {
	if o.Traffic == "" && o.SLONs <= 0 {
		return s, nil
	}
	ts := append([]Tenant(nil), s.Tenants...)
	if o.Traffic != "" {
		inj, err := ParseTraffic(o.Traffic)
		if err != nil {
			return Spec{}, err
		}
		for i := range ts {
			over := inj
			over.Outstanding = ts[i].Inject.Outstanding
			ts[i].Inject = over
		}
	}
	if o.SLONs > 0 {
		for i := range ts {
			if ts[i].QoS.TargetNs == 0 {
				ts[i].QoS.TargetNs = o.SLONs
			}
		}
	}
	s.Tenants = ts
	return s, nil
}

// ParseTraffic parses the compact traffic grammar the CLIs accept
// (rates are per-port MRPS, durations accept ps/ns/us/ms suffixes):
//
//	open:4                         fixed open loop at 4 MRPS
//	phases:2@100us,~8@100us        phase script; ~ ramps to the next rate
//	burst:8/0.5@20us/80us          MMPP burst/idle rates @ mean dwells
//	diurnal:2..16@400us            day/night preset (low..high @ period)
//
// FormatTraffic renders the canonical spelling; ParseTraffic of the
// result round-trips (the FuzzRatePhases contract).
func ParseTraffic(s string) (Injection, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Injection{}, fmt.Errorf("traffic: %q needs a kind prefix (open:, phases:, burst: or diurnal:)", s)
	}
	switch kind {
	case "open":
		r, err := parseRate(rest)
		if err != nil {
			return Injection{}, err
		}
		return Injection{Mode: "open", RateMRPS: r}, nil
	case "phases":
		var phases []RatePhase
		for _, tok := range strings.Split(rest, ",") {
			ramp := strings.HasPrefix(tok, "~")
			tok = strings.TrimPrefix(tok, "~")
			rs, ds, ok := strings.Cut(tok, "@")
			if !ok {
				return Injection{}, fmt.Errorf("traffic: phase %q needs rate@duration", tok)
			}
			r, err := parseRate(rs)
			if err != nil {
				return Injection{}, err
			}
			d, err := parseDur(ds)
			if err != nil {
				return Injection{}, err
			}
			phases = append(phases, RatePhase{RateMRPS: r, Duration: d, Ramp: ramp})
		}
		return Injection{Mode: "phased", Phases: phases}, nil
	case "burst":
		rates, dwells, ok := strings.Cut(rest, "@")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst %q needs burst/idle@dwell/dwell", rest)
		}
		brs, irs, ok := strings.Cut(rates, "/")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst rates %q need burst/idle", rates)
		}
		bds, ids, ok := strings.Cut(dwells, "/")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: burst dwells %q need burst/idle", dwells)
		}
		br, err := parseRate(brs)
		if err != nil {
			return Injection{}, err
		}
		ir, err := parseRate(irs)
		if err != nil {
			return Injection{}, err
		}
		bd, err := parseDur(bds)
		if err != nil {
			return Injection{}, err
		}
		id, err := parseDur(ids)
		if err != nil {
			return Injection{}, err
		}
		return Injection{Mode: "burst", BurstMRPS: br, IdleMRPS: ir, BurstDwell: bd, IdleDwell: id}, nil
	case "diurnal":
		spanStr, ps, ok := strings.Cut(rest, "@")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: diurnal %q needs low..high@period", rest)
		}
		los, his, ok := strings.Cut(spanStr, "..")
		if !ok {
			return Injection{}, fmt.Errorf("traffic: diurnal span %q needs low..high", spanStr)
		}
		lo, err := parseRate(los)
		if err != nil {
			return Injection{}, err
		}
		hi, err := parseRate(his)
		if err != nil {
			return Injection{}, err
		}
		period, err := parseDur(ps)
		if err != nil {
			return Injection{}, err
		}
		if period < 4 {
			return Injection{}, fmt.Errorf("traffic: diurnal period %s too short to split into phases", ps)
		}
		return Injection{Mode: "phased", Phases: DiurnalPhases(period, lo, hi)}, nil
	}
	return Injection{}, fmt.Errorf("traffic: unknown kind %q (want open, phases, burst or diurnal)", kind)
}

// FormatTraffic renders an injection in the ParseTraffic grammar
// (diurnal presets render as the phase script they lower to). Closed
// loop renders as the empty string — there is nothing to overlay.
func FormatTraffic(in Injection) string {
	switch in.Mode {
	case "open":
		return "open:" + formatRate(in.RateMRPS)
	case "phased":
		parts := make([]string, len(in.Phases))
		for i, p := range in.Phases {
			ramp := ""
			if p.Ramp {
				ramp = "~"
			}
			parts[i] = fmt.Sprintf("%s%s@%s", ramp, formatRate(p.RateMRPS), formatDur(p.Duration))
		}
		return "phases:" + strings.Join(parts, ",")
	case "burst":
		return fmt.Sprintf("burst:%s/%s@%s/%s",
			formatRate(in.BurstMRPS), formatRate(in.IdleMRPS),
			formatDur(in.BurstDwell), formatDur(in.IdleDwell))
	}
	return ""
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return 0, fmt.Errorf("traffic: bad rate %q (want a non-negative MRPS number)", s)
	}
	return r, nil
}

func formatRate(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}

// parseDur parses a simulated duration with a ps/ns/us/ms suffix.
func parseDur(s string) (sim.Duration, error) {
	unit := sim.Duration(0)
	num := s
	switch {
	case strings.HasSuffix(s, "us"):
		unit, num = sim.Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ms"):
		unit, num = sim.Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "ns"):
		unit, num = sim.Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "ps"):
		unit, num = sim.Picosecond, strings.TrimSuffix(s, "ps")
	default:
		return 0, fmt.Errorf("traffic: duration %q needs a ps/ns/us/ms suffix", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 9e18/float64(unit) {
		return 0, fmt.Errorf("traffic: bad duration %q", s)
	}
	return sim.Duration(math.Round(v * float64(unit))), nil
}

// formatDur renders a duration in the largest unit that divides it.
func formatDur(d sim.Duration) string {
	switch {
	case d != 0 && d%sim.Millisecond == 0:
		return fmt.Sprintf("%dms", d/sim.Millisecond)
	case d != 0 && d%sim.Microsecond == 0:
		return fmt.Sprintf("%dus", d/sim.Microsecond)
	case d != 0 && d%sim.Nanosecond == 0:
		return fmt.Sprintf("%dns", d/sim.Nanosecond)
	default:
		return fmt.Sprintf("%dps", d)
	}
}

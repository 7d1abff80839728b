package sim

import (
	"math/rand"
	"testing"
)

// The calendar queue must be observationally identical to the
// reference binary heap it replaced: for ANY interleaving of pushes
// and (possibly limit-bounded) pops, both structures must emit the
// same (at, seq) sequence. The differential driver below runs the two
// in lockstep; the randomized tests sweep adversarial schedule
// regimes, and FuzzQueueOrder lets the fuzzer hunt for interleavings
// the regimes miss.

type nopHandler struct{}

func (nopHandler) Fire(*Engine) {}

// diffDriver drives a calendar queue and the reference heap in
// lockstep, modelling the engine's clock rules: pops advance the
// clock, failed limited pops jump it to the limit (RunUntil), and
// every push is stamped at or after the current clock.
type diffDriver struct {
	t   testing.TB
	q   calQueue
	ref refHeap
	now Time
	seq uint64
}

func (d *diffDriver) push(delta Duration) {
	if delta < 0 {
		delta = 0
	}
	d.seq++
	ev := event{at: d.now + delta, seq: d.seq, h: nopHandler{}}
	d.q.push(ev, d.now)
	d.ref.push(ev)
	if got, want := d.q.len(), d.ref.len(); got != want {
		d.t.Fatalf("after push at %d: len %d, reference %d", ev.at, got, want)
	}
}

// popLE pops from both queues with the given limit and cross-checks
// the outcome. A refused pop advances the clock to the limit, like
// RunUntil advancing to its deadline.
func (d *diffDriver) popLE(limit Time) bool {
	ev, ok := d.q.popLE(limit)
	refOK := d.ref.len() > 0 && !d.ref.peek().after(limit)
	if ok != refOK {
		d.t.Fatalf("popLE(%d) ok=%v, reference %v (len %d)", limit, ok, refOK, d.ref.len())
	}
	if !ok {
		if limit != maxTime && d.now < limit {
			d.now = limit
		}
		return false
	}
	want := d.ref.pop()
	if ev.at != want.at || ev.seq != want.seq {
		d.t.Fatalf("popLE(%d) = (at %d, seq %d), reference (at %d, seq %d)",
			limit, ev.at, ev.seq, want.at, want.seq)
	}
	if ev.at < d.now {
		d.t.Fatalf("pop went backwards: at %d before clock %d", ev.at, d.now)
	}
	d.now = ev.at
	return true
}

func (d *diffDriver) pop() bool { return d.popLE(maxTime) }

func (d *diffDriver) drain() {
	for d.pop() {
	}
	if d.q.len() != 0 || d.ref.len() != 0 {
		d.t.Fatalf("after drain: len %d, reference %d", d.q.len(), d.ref.len())
	}
}

// after is the complement of before against a bare timestamp.
func (ev event) after(t Time) bool { return ev.at > t }

// deltaRegimes are adversarial scheduling-delta distributions: each
// returns a delta >= 0. They are chosen to force every queue
// mechanism: same-timestamp FIFO runs, cursor-slot insertion,
// overflow migration, idle re-anchoring, wheel growth and both
// directions of width re-keying.
var deltaRegimes = []struct {
	name string
	gen  func(r *rand.Rand) Duration
}{
	{"tight", func(r *rand.Rand) Duration { return Duration(r.Intn(8)) }},
	{"bursty", func(r *rand.Rand) Duration {
		if r.Intn(2) == 0 {
			return 0 // same-timestamp burst
		}
		return Duration(r.Intn(2000))
	}},
	{"banklike", func(r *rand.Rand) Duration { return Duration(500 + r.Intn(3000)) }},
	{"bimodal", func(r *rand.Rand) Duration {
		if r.Intn(16) == 0 {
			return Duration(1+r.Intn(5)) * Microsecond // refresh-tick scale
		}
		return Duration(r.Intn(1500))
	}},
	{"farfuture", func(r *rand.Rand) Duration {
		return Duration(r.Intn(int(4 * Millisecond))) // mostly overflow
	}},
	{"drifting", func(r *rand.Rand) Duration {
		// Exponentially spread gaps swing the measured pop gap up
		// and down, forcing re-keys in both directions.
		return Duration(r.Intn(15)+1) << uint(r.Intn(20))
	}},
}

// TestQueueDifferentialRandom cross-checks random schedule/pop
// interleavings against the reference heap across all regimes.
func TestQueueDifferentialRandom(t *testing.T) {
	for _, regime := range deltaRegimes {
		t.Run(regime.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				d := &diffDriver{t: t}
				for op := 0; op < 6000; op++ {
					switch r.Intn(8) {
					case 0, 1, 2, 3: // push
						d.push(regime.gen(r))
					case 4, 5: // pop
						d.pop()
					case 6: // bounded pop, as RunUntil issues
						d.popLE(d.now + regime.gen(r))
					case 7: // burst: several pushes at one instant
						n := r.Intn(6)
						for i := 0; i < n; i++ {
							d.push(Duration(r.Intn(2)))
						}
					}
				}
				d.drain()
			}
		})
	}
}

// TestQueueDifferentialDeepBacklog holds thousands of events pending
// while popping, covering wheel growth and deep overflow heaps.
func TestQueueDifferentialDeepBacklog(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := &diffDriver{t: t}
	for i := 0; i < 5000; i++ {
		d.push(Duration(r.Intn(int(2 * Microsecond))))
	}
	// Steady churn at depth ~5000.
	for i := 0; i < 20000; i++ {
		if r.Intn(2) == 0 {
			d.push(Duration(r.Intn(int(2 * Microsecond))))
		} else {
			d.pop()
		}
	}
	d.drain()
}

// TestQueueDifferentialIdleJumps alternates long idle periods
// (RunUntil far past the last event) with bursts, covering the idle
// re-anchor path and pushes landing right after a clock jump.
func TestQueueDifferentialIdleJumps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := &diffDriver{t: t}
	for round := 0; round < 300; round++ {
		for i := r.Intn(20); i > 0; i-- {
			d.push(Duration(r.Intn(4000)))
		}
		// Bounded pops up to a deadline beyond some events.
		deadline := d.now + Duration(r.Intn(6000))
		for d.popLE(deadline) {
		}
		// Jump far ahead; the next burst must re-anchor cleanly.
		d.popLE(d.now + Duration(r.Intn(int(10*Microsecond))))
	}
	d.drain()
}

// TestQueueSingleRegister pins the one-event register fast path:
// strict push/pop alternation must never touch the wheel.
func TestQueueSingleRegister(t *testing.T) {
	d := &diffDriver{t: t}
	for i := 0; i < 1000; i++ {
		d.push(Duration(i % 97))
		d.pop()
	}
	if d.q.slots != nil {
		t.Fatal("strict alternation should stay in the single register, wheel was built")
	}
	d.drain()
}

// TestEngineBatchDrainCounts verifies Run's batched same-timestamp
// drain executes every event exactly once, including events scheduled
// at the running timestamp from inside a batch.
func TestEngineBatchDrainCounts(t *testing.T) {
	e := NewEngine()
	var fired int
	var nested bool
	for i := 0; i < 50; i++ {
		e.Schedule(10, func() {
			fired++
			if !nested {
				nested = true
				e.Schedule(0, func() { fired++ }) // joins the running batch
			}
		})
	}
	e.Run()
	if fired != 51 {
		t.Fatalf("fired %d events, want 51", fired)
	}
	if got := e.Processed(); got != 51 {
		t.Fatalf("Processed() = %d, want 51", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

// settleRegimes reproduce, in miniature, three workloads that keep a
// wheel tuned from short-term averages re-keying or overflowing. Each
// step advances the driver by one unit of work; the queue's population
// is the regime's state.
var settleRegimes = []struct {
	name string
	init func(d *diffDriver, r *rand.Rand)
	step func(d *diffDriver, r *rand.Rand)
}{
	// gups: a closed loop of 576 requests. Three events in four are
	// ns-scale pipeline hops; the fourth waits out a µs-scale round
	// trip, so a wheel whose coverage follows the mean delta sends
	// those through the overflow heap.
	{"closed-loop-bimodal", func(d *diffDriver, r *rand.Rand) {
		for i := 0; i < 576; i++ {
			d.push(bimodalDelta(r))
		}
	}, func(d *diffDriver, r *rand.Rand) {
		d.pop()
		d.push(bimodalDelta(r))
	}},
	// mesh: a population of 128 advanced by RunUntil in 220 ns
	// windows, the mean pop gap near 4096 ps. One successor in eight
	// crosses to another shard: it is held until the barrier and then
	// injected on the window grid, as Mesh.exchange does.
	{"windowed", func(d *diffDriver, r *rand.Rand) {
		for i := 0; i < 128; i++ {
			d.push(windowDelta(r))
		}
	}, func(d *diffDriver, r *rand.Rand) {
		const w = 220 * Nanosecond
		deadline := (d.now/w + 1) * w
		var remote []Time
		for d.popLE(deadline) {
			if delta := windowDelta(r); r.Intn(8) == 0 {
				remote = append(remote, (d.now+delta+w-1)/w*w)
			} else {
				d.push(delta)
			}
		}
		for _, at := range remote {
			d.push(at - d.now)
		}
	}},
	// rw: a closed loop of 64 whose delta scale swings 16x every 256
	// events, dragging the pop gap back and forth across four octaves.
	{"oscillating", func(d *diffDriver, r *rand.Rand) {
		for i := 0; i < 64; i++ {
			d.push(Duration(r.Intn(2000)))
		}
	}, func(d *diffDriver, r *rand.Rand) {
		scale := 1 + 15*int(d.seq>>8&1)
		d.pop()
		d.push(Duration(r.Intn(2000 * scale)))
	}},
}

func bimodalDelta(r *rand.Rand) Duration {
	if r.Intn(4) == 0 {
		return 2*Microsecond + Duration(r.Intn(int(Microsecond)))
	}
	return Duration(r.Intn(4000))
}

func windowDelta(r *rand.Rand) Duration {
	if r.Intn(8) == 0 {
		return 2500*Nanosecond + Duration(r.Intn(int(Microsecond)))
	}
	return 50*Nanosecond + Duration(r.Intn(300_000))
}

// TestCalendarSettles pins that the wheel's tuning settles: after a
// warm-up the geometry re-keys at most twice, and no more than 1/16 of
// the pushes detour through the overflow heap — while the pop order
// stays identical to the reference heap throughout.
func TestCalendarSettles(t *testing.T) {
	for _, reg := range settleRegimes {
		t.Run(reg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			d := &diffDriver{t: t}
			reg.init(d, r)
			for d.q.pops < 20_000 {
				reg.step(d, r)
			}
			pushes, over, rekeys := d.q.pushes, d.q.overflows, d.q.rekeys
			for d.q.pops < 200_000 {
				reg.step(d, r)
			}
			pushes, over, rekeys = d.q.pushes-pushes, d.q.overflows-over, d.q.rekeys-rekeys
			t.Logf("%d pushes, %d overflow, %d re-keys; settled at %d slots of %d ps",
				pushes, over, rekeys, len(d.q.slots), d.q.width())
			if rekeys > 2 {
				t.Errorf("%d re-keys after warm-up, want <= 2", rekeys)
			}
			if 16*over > pushes {
				t.Errorf("%d of %d pushes overflowed, want <= 1/16", over, pushes)
			}
			d.drain()
		})
	}
}

package sim

import (
	"fmt"
	"testing"
)

// The schedule benchmarks measure the engine's two scheduling APIs at
// steady state. The Handler path must report 0 allocs/op: the event
// queue is a value-typed slice and a pointer Handler boxes for free.
// The closure path pays one allocation per captured closure (the
// closure object itself); the queue adds none.

type benchHandler struct{ n uint64 }

func (h *benchHandler) Fire(*Engine) { h.n++ }

func BenchmarkEngineScheduleHandler(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(1, h)
		e.Step()
	}
}

// BenchmarkEngineScheduleHandlerDepth64 keeps 64 events pending, so
// every push/pop exercises the heap's sift paths.
func BenchmarkEngineScheduleHandlerDepth64(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	for i := 0; i < 64; i++ {
		e.ScheduleHandler(Duration(i), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(64, h)
		e.Step()
	}
}

// BenchmarkEngineScheduleDepth parameterizes the pending-event depth:
// the binary-heap kernel degraded as O(log n) with cache-hostile sift
// walks, while the calendar queue should stay near-flat. (Named apart
// from the ScheduleHandler benchmarks so CI's 0 allocs/op gate, which
// requires a settled steady state, keeps its narrow scope.)
func BenchmarkEngineScheduleDepth(b *testing.B) {
	for _, depth := range []int{16, 256, 4096, 32768} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			e := NewEngine()
			h := &benchHandler{}
			for i := 0; i < depth; i++ {
				e.ScheduleHandler(Duration(i), h)
			}
			// Warm until the queue geometry settles at this depth.
			for i := 0; i < 4*depth; i++ {
				e.ScheduleHandler(Duration(depth), h)
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleHandler(Duration(depth), h)
				e.Step()
			}
		})
	}
}

// refreshTicker models the µs-scale periodic events (DRAM refresh)
// that coexist with ns-scale traffic: it always reschedules itself a
// microsecond out, so it lives in the queue's far-future level.
type refreshTicker struct{ fired uint64 }

func (h *refreshTicker) Fire(e *Engine) {
	h.fired++
	e.ScheduleHandler(Microsecond, h)
}

// BenchmarkEngineMixedTimescale drives ns-gap events through a queue
// that also holds 32 µs-period refresh tickers, the bimodal pattern a
// multi-cube chain sustains. The far-future tickers must not tax the
// ns-scale fast path.
func BenchmarkEngineMixedTimescale(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	for i := 0; i < 32; i++ {
		e.ScheduleHandler(Microsecond+Duration(i), &refreshTicker{})
	}
	for i := 0; i < 4096; i++ {
		e.ScheduleHandler(Duration(i%800), h)
	}
	for i := 0; i < 16384; i++ {
		e.ScheduleHandler(800, h)
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(800, h)
		e.Step()
	}
}

// windowedPop is the population of BenchmarkEngineWindowedBimodal: a
// PDES shard's event stream in miniature. Every firing reschedules the
// handler a bimodal delta out (mostly sub-µs hops, one in eight a µs-scale
// round trip); one firing in eight is instead parked for the window
// barrier and injected there on the window grid, as a cross-shard send
// is by Mesh.exchange.
type windowedPop struct {
	rng    *RNG
	parked []Time
}

func (p *windowedPop) Fire(e *Engine) {
	d := 50*Nanosecond + Duration(p.rng.Uint64n(300_000))
	if p.rng.Uint64n(8) == 0 {
		d = 2500*Nanosecond + Duration(p.rng.Uint64n(uint64(Microsecond)))
	}
	if p.rng.Uint64n(8) == 0 {
		p.parked = append(p.parked, e.Now()+d)
		return
	}
	e.ScheduleHandler(d, p)
}

// window runs the engine to the next 220 ns barrier, then injects the
// parked events.
func (p *windowedPop) window(e *Engine) {
	const w = 220 * Nanosecond
	e.RunUntil((e.Now()/w + 1) * w)
	for _, at := range p.parked {
		e.AtHandler((at+w-1)/w*w, p)
	}
	p.parked = p.parked[:0]
}

// BenchmarkEngineWindowedBimodal advances a population of 128 events
// in 220 ns RunUntil windows with a mean pop gap near 4 ns, the
// pattern of a chain-16 mesh shard. One op is one window. Once the
// queue has settled, a window must not allocate: CI gates it at
// 0 allocs/op, which a wheel that keeps re-keying (and losing its
// warmed slot capacity) fails.
func BenchmarkEngineWindowedBimodal(b *testing.B) {
	e := NewEngine()
	p := &windowedPop{rng: NewRNG(1)}
	for i := 0; i < 128; i++ {
		e.ScheduleHandler(Duration(i)*Nanosecond, p)
	}
	for i := 0; i < 4000; i++ {
		p.window(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.window(e)
	}
}

func BenchmarkEngineScheduleClosure(b *testing.B) {
	e := NewEngine()
	var n uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func() { n++ })
		e.Step()
	}
}

func BenchmarkEngineScheduleClosureDepth64(b *testing.B) {
	e := NewEngine()
	var n uint64
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), func() { n++ })
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(64, func() { n++ })
		e.Step()
	}
}

// selfRescheduler models a device tick loop: one Handler instance that
// reschedules itself until a horizon, the dominant pattern in the
// migrated vault/refresh/port models.
type selfRescheduler struct {
	until Time
	fired uint64
}

func (h *selfRescheduler) Fire(e *Engine) {
	h.fired++
	if e.Now() < h.until {
		e.ScheduleHandler(1, h)
	}
}

func BenchmarkEngineRunSelfRescheduling(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		h := &selfRescheduler{until: 10000}
		e.ScheduleHandler(0, h)
		e.Run()
		if h.fired == 0 {
			b.Fatal("no events fired")
		}
	}
}

func BenchmarkDelivererDeliver(b *testing.B) {
	e := NewEngine()
	d := NewDeliverer[uint64](e)
	var sum uint64
	done := func(v uint64) { sum += v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Deliver(e.Now()+1, uint64(i), done)
		e.Step()
	}
}

// TestScheduleHandlerZeroAlloc is the allocation-regression guard for
// the hot path: scheduling and firing a Handler at steady state must
// not allocate. It pins both queue regimes — the one-event register
// (queue oscillating 0<->1, the self-rescheduling tick pattern) and
// the calendar wheel at depth (64 events always pending). CI also
// runs the benchmarks above with -benchmem and rejects any
// "allocs/op" regression on the Handler path.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	t.Run("register", func(t *testing.T) {
		e := NewEngine()
		h := &benchHandler{}
		for i := 0; i < 64; i++ { // settle any engine-level capacity
			e.ScheduleHandler(1, h)
			e.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.ScheduleHandler(1, h)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("register path allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("wheel", func(t *testing.T) {
		e := NewEngine()
		h := &benchHandler{}
		// Hold 64 events pending so every op exercises the wheel, and
		// warm until the self-tuned geometry and the per-slot slice
		// capacities settle (the queue re-keys at the end of its first
		// 1024-pop tuning epoch).
		for i := 0; i < 64; i++ {
			e.ScheduleHandler(Duration(i), h)
		}
		for i := 0; i < 1024; i++ {
			e.ScheduleHandler(64, h)
			e.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			e.ScheduleHandler(64, h)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("wheel path allocates %.1f allocs/op, want 0", allocs)
		}
	})
}

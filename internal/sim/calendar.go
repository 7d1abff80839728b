package sim

import (
	"math/bits"
	"slices"
)

// calQueue is the engine's pending-event queue: a two-level bucketed
// calendar queue (R. Brown, CACM 1988) specialised for the access
// pattern the timing models generate — nearly every event is scheduled
// a short, bounded delta past Now().
//
// Level 1 is a time wheel: a power-of-two ring of slots, each covering
// a width of 2^shift picoseconds and holding an insertion-ordered
// slice of events. Pushing an event whose timestamp falls inside the
// wheel's coverage window is an append — O(1), no sift, no compare
// walk. Level 2 is a small binary min-heap holding far-future events
// beyond the wheel's coverage (experiment horizons, µs-scale refresh
// ticks); as the wheel turns, overflow events whose windows come into
// coverage migrate onto the wheel.
//
// Popping serves the cursor slot through a head index after sorting
// the slot once by (at, seq) — restoring the exact total order the old
// binary heap provided. Draining a run of same-timestamp events costs
// one index bump per event where the heap paid a full O(log n)
// sift-down each. Events scheduled into the cursor's own slot
// (zero/short delays landing in the current window) are inserted at
// their sorted position, so the order stays exact.
//
// Invariant: the cursor's window start never exceeds the engine clock.
// Every push carries `now` and every event satisfies at >= now, so new
// events always land at or ahead of the cursor, never behind it. To
// preserve this, probing for the next event (popLE with a limit, as
// RunUntil does) is passive: the cursor only commits to a new slot
// when an event is actually popped, which also advances the clock.
//
// The geometry tunes itself from what it measures over an epoch of at
// least max(1024, slots) pops. The slot width follows the epoch's mean
// pop-to-pop gap, so a slot holds one or two events and draining stays
// O(1); the width alone re-keys only when that mean leaves
// [width/4, 2*width), so a gap on a power-of-two boundary cannot flip
// it back and forth. The coverage window follows the 31/32 quantile of
// push deltas (at - now), read off a log2 histogram with one increment
// per wheel push, so all but the tail of pushes land on the wheel.
// When more than 1/16 of an epoch's pushes still detour through the
// overflow heap and the coverage falls short of that quantile, the
// wheel widens even if the width is only one step off. The ring grows
// to keep at most two resident events per slot and never shrinks, and
// every re-key keeps the slots' warmed capacities, so a settled queue
// stops re-keying and stops allocating.
// Tuning affects performance only — the pop order is exact (at, seq)
// regardless of geometry, which is what the golden regressions and
// the differential tests pin down.
//
// At steady state (stable event population and inter-event gap) the
// queue performs zero allocations: slot slices, the overflow heap and
// the re-key scratch buffer all retain their capacity.
type calQueue struct {
	slots [][]event // ring of buckets; len is a power of two
	mask  int       // len(slots) - 1
	shift uint      // slot width = 1 << shift picoseconds

	cur  int // cursor: slot currently being served
	head int // consumed prefix of slots[cur]

	// horizon is the exclusive end of the wheel's coverage window
	// [horizon - len(slots)*width, horizon). Events at or beyond it
	// live in the overflow heap.
	horizon Time

	slotN    int       // events resident in slots (excluding consumed prefix)
	overflow eventHeap // far-future events, min-heap by (at, seq)

	// single is a one-event register in front of the wheel: a queue
	// holding exactly one event (the self-rescheduling tick pattern —
	// Deliverer completions, port wake loops) parks it here and never
	// touches wheel or heap. Invariant: hasSingle implies the wheel
	// and overflow are empty, so the register is always the minimum.
	single    event
	hasSingle bool

	pops   uint64 // pop counter, drives the tuning epochs
	lastAt Time   // timestamp of the most recently popped event

	// Epoch measurements: the pop count, timestamp and overflow count
	// at the epoch's start, the pop count that ends it, and a log2
	// histogram of its wheel-push deltas (bucket bits.Len64(at - now)).
	epochPops uint64
	epochEnd  uint64
	epochAt   Time
	epochOver uint64
	hist      [65]uint64

	pushes, overflows, rekeys uint64 // lifetime totals, see QueueStats

	scratch []event // reusable buffer for re-keying
}

const (
	calMinSlots = 64
	calMaxSlots = 1 << 10
	calMaxShift = 36 // ~69 ms slots
	// calInitShift is the width before any gap has been observed:
	// 1.024 ns, matching the ns-scale events that dominate the models.
	calInitShift = 10
	// calEpoch is the minimum number of pops per tuning epoch.
	calEpoch = 1024
	// calSlotCap is the capacity a slot is created with, so a fresh
	// slot does not grow one event at a time.
	calSlotCap = 8
)

func (q *calQueue) len() int {
	n := q.slotN + len(q.overflow)
	if q.hasSingle {
		n++
	}
	return n
}

// width reports the current slot width in picoseconds.
func (q *calQueue) width() Time { return 1 << q.shift }

// push inserts ev. now is the engine clock, a floor for ev.at and for
// every future push; an idle queue re-anchors its coverage there.
func (q *calQueue) push(ev event, now Time) {
	q.pushes++
	if q.hasSingle {
		// A second event arrives: demote the register to the wheel.
		q.hasSingle = false
		q.wheelPush(q.single, now)
		q.single.h = nil
		q.wheelPush(ev, now)
		return
	}
	if q.slotN == 0 && len(q.overflow) == 0 {
		q.single = ev
		q.hasSingle = true
		return
	}
	q.wheelPush(ev, now)
}

// wheelPush places ev on the wheel or the overflow heap.
func (q *calQueue) wheelPush(ev event, now Time) {
	q.hist[bits.Len64(uint64(ev.at-now))]++
	if q.slots == nil {
		q.slots = make([][]event, calMinSlots)
		q.mask = calMinSlots - 1
		q.shift = calInitShift
		q.epochEnd = calEpoch
		q.anchor(now)
	} else if q.slotN == 0 && len(q.overflow) == 0 {
		// Idle queue: re-anchor coverage at the clock so a long quiet
		// gap (e.g. after RunUntil) does not leave the wheel keyed to
		// a stale epoch.
		q.anchor(now)
	}
	if ev.at >= q.horizon {
		q.overflow.push(ev)
		q.overflows++
	} else {
		q.place(ev)
	}
	if n := len(q.slots); q.len() > 2*n && n < calMaxSlots {
		q.rekey(q.shift, 2*n)
	}
}

// place puts ev, which lies inside the wheel's coverage, into its
// slot, creating the slot at calSlotCap. The cursor slot is served in
// sorted order, so there ev moves to its (at, seq) position among the
// unconsumed events. It goes after every event with the same
// timestamp: a push carries the largest seq issued so far, and
// re-keys and overflow migration place events in (at, seq) order.
func (q *calQueue) place(ev event) {
	idx := int(ev.at>>q.shift) & q.mask
	s := q.slots[idx]
	if cap(s) == 0 {
		s = make([]event, 0, calSlotCap)
	}
	s = append(s, ev)
	q.slots[idx] = s
	q.slotN++
	if idx != q.cur {
		return
	}
	lo, hi := q.head, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ev.at < s[mid].at {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	copy(s[lo+1:], s[lo:len(s)-1])
	s[lo] = ev
}

// anchor re-keys the wheel's coverage window to start at the slot
// containing t. All slots except the cursor's consumed prefix must be
// empty. Overflow events that fall inside the new coverage migrate
// onto the wheel.
func (q *calQueue) anchor(t Time) {
	q.slots[q.cur] = q.slots[q.cur][:0] // drop the consumed (zeroed) prefix
	start := t &^ (q.width() - 1)
	q.cur = int(start>>q.shift) & q.mask
	q.head = 0
	q.horizon = start + Time(len(q.slots))<<q.shift
	q.drainOverflow()
}

// drainOverflow migrates overflow events that now fall inside the
// wheel's coverage onto the wheel. The heap pops in (at, seq) order,
// so runs landing in one slot arrive already sorted.
func (q *calQueue) drainOverflow() {
	for len(q.overflow) > 0 && q.overflow[0].at < q.horizon {
		q.place(q.overflow.pop())
	}
}

// popLE removes and returns the earliest pending event if its
// timestamp is <= limit. When the earliest event is later than limit
// (or the queue is empty) it reports false and leaves the queue — in
// particular the cursor — untouched, so events pushed afterwards at
// earlier timestamps still land ahead of the cursor.
func (q *calQueue) popLE(limit Time) (event, bool) {
	if q.hasSingle {
		if q.single.at > limit {
			return event{}, false
		}
		ev := q.single
		q.single.h = nil
		q.hasSingle = false
		return ev, true
	}
	if q.slotN == 0 {
		// Wheel empty: the overflow minimum is the global minimum.
		// Popping it jumps the coverage window straight to its epoch,
		// skipping what could be millions of empty slot windows.
		if len(q.overflow) == 0 || q.overflow[0].at > limit {
			return event{}, false
		}
		ev := q.overflow.pop()
		q.anchor(ev.at)
		q.tune(ev.at)
		return ev, true
	}
	if q.head < len(q.slots[q.cur]) {
		// Fast path: the cursor slot is sorted, its head is the
		// global minimum (earlier windows are consumed, later ones
		// and the overflow hold strictly later events).
		if q.slots[q.cur][q.head].at > limit {
			return event{}, false
		}
		return q.popHead(), true
	}
	// Probe for the next non-empty slot without touching the cursor.
	idx, steps := q.cur, 0
	for {
		idx = (idx + 1) & q.mask
		steps++
		if len(q.slots[idx]) > 0 {
			break
		}
	}
	min := q.slots[idx][0].at
	for _, ev := range q.slots[idx][1:] {
		if ev.at < min {
			min = ev.at
		}
	}
	if min > limit {
		return event{}, false
	}
	// Commit: advance the cursor, extend coverage one window per slot
	// stepped, migrate overflow that came into coverage, and sort the
	// new cursor slot once.
	q.slots[q.cur] = q.slots[q.cur][:0]
	q.cur = idx
	q.head = 0
	q.horizon += Time(steps) << q.shift
	q.drainOverflow()
	sortEvents(q.slots[idx])
	return q.popHead(), true
}

// popHead removes the event under the cursor without re-positioning;
// valid whenever headAt reports true (used to drain same-timestamp
// batches without re-touching the queue head).
func (q *calQueue) popHead() event {
	s := q.slots[q.cur]
	ev := s[q.head]
	s[q.head] = event{} // release the Handler for GC
	q.head++
	q.slotN--
	q.tune(ev.at)
	return ev
}

// headAt reports the timestamp under the cursor, or false when the
// cursor slot is exhausted (the next event, if any, needs popLE).
// Every pending event with the cursor head's timestamp lives in the
// cursor slot, so headAt() != t proves no t-stamped events remain.
func (q *calQueue) headAt() (Time, bool) {
	if q.slotN > 0 && q.head < len(q.slots[q.cur]) {
		return q.slots[q.cur][q.head].at, true
	}
	// An event parked in the single register is deliberately not
	// reported: popHead cannot serve it. The caller falls back to
	// popLE, which takes the register fast path.
	return 0, false
}

// tune counts a pop and, at the end of each epoch, re-keys the wheel
// when the epoch's measurements show its geometry no longer fits.
func (q *calQueue) tune(at Time) {
	q.lastAt = at
	if q.pops++; q.pops >= q.epochEnd {
		q.retune()
	}
}

// retune derives the geometry from an epoch of pops and starts the
// next epoch. The width is the mean pop gap rounded up to a power of
// two; the coverage is the 31/32 quantile of push deltas, rounded up
// to a power of two by the histogram. The ring doubles until it spans
// that coverage (and holds the resident population at two events per
// slot); once at its maximum, the width gives way instead.
func (q *calQueue) retune() {
	gap := (q.lastAt - q.epochAt) / Time(q.pops-q.epochPops)
	s := min(uint(bits.Len64(uint64(gap))), calMaxShift)
	var pushes, seen uint64
	for _, c := range q.hist {
		pushes += c
	}
	b := 0
	for ; b < 62; b++ {
		if seen += q.hist[b]; 32*seen >= 31*pushes {
			break
		}
	}
	cover := Time(1) << b
	starved := 16*(q.overflows-q.epochOver) > pushes && Time(len(q.slots))<<q.shift < cover

	n, need := len(q.slots), max((cover+(Time(1)<<s)-1)>>s, Time(q.len()/2))
	for n < calMaxSlots && Time(n) < need {
		n *= 2
	}
	for s < calMaxShift && Time(n)<<s < cover {
		s++
	}
	if starved || n > len(q.slots) || s >= q.shift+2 || s+2 <= q.shift {
		q.rekey(s, n)
	}
	q.epochPops, q.epochAt, q.epochOver = q.pops, q.lastAt, q.overflows
	q.epochEnd = q.pops + uint64(max(calEpoch, len(q.slots)))
	clear(q.hist[:])
}

// rekey rebuilds the wheel with a new slot width and/or slot count,
// redistributing every pending event. Order is unaffected: events
// carry their (at, seq) keys, and slots re-sort on cursor entry.
func (q *calQueue) rekey(shift uint, nslots int) {
	q.rekeys++
	q.scratch = q.scratch[:0]
	for i, s := range q.slots {
		from := 0
		if i == q.cur {
			from = q.head
		}
		q.scratch = append(q.scratch, s[from:]...)
		clear(s)
		q.slots[i] = s[:0]
	}
	q.scratch = append(q.scratch, q.overflow...)
	clear(q.overflow)
	q.overflow = q.overflow[:0]

	q.shift = shift
	if nslots > len(q.slots) {
		ns := make([][]event, nslots)
		copy(ns, q.slots) // carry over the warmed slot capacities
		q.slots = ns
		q.mask = nslots - 1
	}
	q.slotN = 0

	// Anchor at the last popped timestamp: it floors the clock, hence
	// every pending event and every future push. Sorting first makes
	// every placement an append: cursor-slot events arrive in order,
	// so place never moves anything.
	sortEvents(q.scratch)
	q.anchor(q.lastAt)
	for _, ev := range q.scratch {
		if ev.at >= q.horizon {
			q.overflow.push(ev)
		} else {
			q.place(ev)
		}
	}
	clear(q.scratch)
	q.scratch = q.scratch[:0]
}

// sortEvents orders s by the queue's total order (at, then seq).
func sortEvents(s []event) {
	slices.SortFunc(s, func(a, b event) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// eventHeap is a value-typed binary min-heap ordered by (at, seq),
// the calendar queue's far-future overflow level.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	evs := append(*h, ev)
	i := len(evs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evs[i].before(evs[parent]) {
			break
		}
		evs[i], evs[parent] = evs[parent], evs[i]
		i = parent
	}
	*h = evs
}

func (h *eventHeap) pop() event {
	evs := *h
	root := evs[0]
	n := len(evs) - 1
	evs[0] = evs[n]
	evs[n] = event{} // release the Handler for GC
	evs = evs[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && evs[r].before(evs[child]) {
			child = r
		}
		if !evs[child].before(evs[i]) {
			break
		}
		evs[i], evs[child] = evs[child], evs[i]
		i = child
	}
	*h = evs
	return root
}

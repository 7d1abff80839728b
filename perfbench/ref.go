package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference kernel measures how fast the host is running right
// now. A shared virtual machine's speed drifts by a third over minutes
// as neighbours come and go, and CPU time does not hide that (it only
// removes stolen time). The kernel is frozen in the benchmark — a
// binary-heap event queue over a 4 MiB table, the simulator's kind of
// work — so a change to the program cannot move it, and the end-to-end
// rates and set-up times are reported at the reference host speed:
//
//	rate x (kernel CPU time now / refNominal)
//	time x (refNominal / kernel CPU time now)
//
// which cancels the drift the program and the kernel share. The
// kernel is timed in its own thread's CPU time, so neither the
// benchmark's other goroutines (svc-mix's clients) nor the Go
// runtime's background work (GC marking of the program's garbage) can
// land in it; its timed loop allocates nothing, so it never assists
// the GC, and it draws its numbers from its own generator, so no
// change to the simulator's code reaches it.

// refNominal is the kernel's typical thread CPU time on a 2-core Xeon
// @ 2.1 GHz (go1.24.0), the host the bounds were set on.
const refNominal = 5e6 // ns

// refCopy is one copy of the kernel's working set.
type refCopy struct {
	table, queue []uint64
	sink         uint64 // keeps the result live
}

// refCopies are made on first use; a copy's table is 4 MiB.
var refCopies []*refCopy

// refKernel runs `copies` copies of the reference kernel at once, each
// on its own locked OS thread, and returns their mean thread CPU time
// in ns. A workload uses as many copies as the program keeps cores
// busy: a lone copy does not see the contention of a loaded sibling
// core (svc-mix's server runs two simulations at once). Callers never
// run it concurrently with itself.
func refKernel(copies int) float64 {
	for len(refCopies) < copies {
		refCopies = append(refCopies, &refCopy{table: make([]uint64, 1<<19), queue: make([]uint64, 0, 1025)})
	}
	ns := make([]float64, copies)
	var wg sync.WaitGroup
	for i := range ns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ns[i] = refCopies[i].run()
		}()
	}
	wg.Wait()
	return mean(ns)
}

// run is one copy of the kernel; it returns its thread CPU time in ns.
func (c *refCopy) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUTime()
	rng := uint64(1)
	next := func(n uint64) uint64 { // splitmix64, reduced mod n
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return (z ^ z>>31) % n
	}
	q := c.queue[:0]
	for i := 0; i < 1024; i++ {
		q = heapPush(q, next(1<<20))
	}
	var acc uint64
	for i := 0; i < 30000; i++ {
		t := q[0]
		q = heapPop(q)
		j := (t*2654435761 + acc) & (1<<19 - 1)
		c.table[j] += t
		acc += c.table[(j*40503)&(1<<19-1)]
		q = heapPush(q, t+next(4096))
	}
	c.sink += acc
	return float64((threadCPUTime() - c0).Nanoseconds())
}

// threadCPUTime is the calling OS thread's CPU time. It is read from
// CLOCK_THREAD_CPUTIME_ID, which brings the running thread's count up
// to date; getrusage(RUSAGE_THREAD) can lag it by a scheduler tick.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func heapPush(q []uint64, v uint64) []uint64 {
	q = append(q, v)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	return q
}

func heapPop(q []uint64) []uint64 {
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return q
}

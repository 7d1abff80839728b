package fpga

import (
	"testing"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

func newRig(t *testing.T) (*sim.Engine, *hmc.Device, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	amap, err := hmc.NewAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := hmc.NewDevice(eng, hmc.DefaultParams(), amap)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(eng, dev, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev, ctrl
}

// TestLowLoadReadLatency pins the paper's low-load calibration: the
// minimum round trip is ~711 ns for 128 B reads and ~655 ns for 16 B
// reads (Section IV-E2), within a +-7% band.
func TestLowLoadReadLatency(t *testing.T) {
	cases := []struct {
		size   int
		wantNs float64
	}{
		{128, 711},
		{16, 655},
	}
	for _, c := range cases {
		eng, _, ctrl := newRig(t)
		var lat sim.Duration
		ctrl.Submit(hmc.Request{Addr: 0, Size: c.size}, func(r Result) {
			lat = r.Latency()
		})
		eng.Run()
		got := lat.Nanoseconds()
		if got < c.wantNs*0.93 || got > c.wantNs*1.07 {
			t.Errorf("size %d: low-load latency = %.0f ns, want %.0f +-7%%", c.size, got, c.wantNs)
		}
	}
}

func TestResultTimestampOrdering(t *testing.T) {
	eng, _, ctrl := newRig(t)
	var res Result
	ctrl.Submit(hmc.Request{Addr: 128, Size: 64}, func(r Result) { res = r })
	eng.Run()
	if !(res.Submit < res.DeviceArrive && res.Deliver < res.PortDeliver) {
		t.Fatalf("timestamps out of order: %+v", res)
	}
	if res.Latency() <= 0 {
		t.Fatal("non-positive latency")
	}
}

// TestWritePipelineThroughput: 9-flit write requests through one node
// are limited by the TX flit pipeline; issuing many from one port
// spaces completions by ~flits/TxFlitsPerCycle cycles.
func TestWritePipelineThroughput(t *testing.T) {
	eng, dev, ctrl := newRig(t)
	const n = 200
	var count int
	for i := 0; i < n; i++ {
		// Distinct vaults so the device side never binds.
		addr := uint64(i) * 128
		ctrl.Submit(hmc.Request{Addr: addr, Size: 128, Write: true, Port: 0}, func(Result) { count++ })
	}
	eng.Run()
	if count != n {
		t.Fatalf("completed %d of %d", count, n)
	}
	elapsed := eng.Now()
	p := ctrl.Params()
	perReq := p.TxPipeTime(9)
	// The steady-state spacing should be within 25% of the pipe time.
	spacing := float64(elapsed) / float64(n)
	if spacing < float64(perReq)*0.75 || spacing > float64(perReq)*1.6 {
		t.Fatalf("write spacing = %.1f ns, pipe time %.1f ns", spacing/1000, float64(perReq)/1000)
	}
	_ = dev
}

// TestBankAdmission: the flow-control stop signal blocks issue once a
// bank has BankQueueDepth outstanding requests, and WaitBank wakes
// the port when a slot frees.
func TestBankAdmission(t *testing.T) {
	eng, dev, ctrl := newRig(t)
	depth := dev.Params().BankQueueDepth
	addr := uint64(0) // bank 0 vault 0
	for i := 0; i < depth; i++ {
		if !ctrl.CanIssue(addr) {
			t.Fatalf("admission blocked at %d < depth %d", i, depth)
		}
		ctrl.Submit(hmc.Request{Addr: addr, Size: 128}, func(Result) {})
	}
	if ctrl.CanIssue(addr) {
		t.Fatal("admission open at full depth")
	}
	if got := ctrl.BankOutstanding(addr); got != depth {
		t.Fatalf("outstanding = %d, want %d", got, depth)
	}
	// A different bank is unaffected.
	other := dev.AddressMap().Encode(3, 5, 0)
	if !ctrl.CanIssue(other) {
		t.Fatal("unrelated bank blocked")
	}
	woken := false
	ctrl.WaitBank(addr, func() { woken = true })
	eng.Run()
	if !woken {
		t.Fatal("waiter never woken")
	}
	if ctrl.BankOutstanding(addr) != 0 {
		t.Fatal("outstanding not drained")
	}
	if ctrl.Submitted() != uint64(depth) || ctrl.Completed() != uint64(depth) {
		t.Fatalf("submitted/completed = %d/%d", ctrl.Submitted(), ctrl.Completed())
	}
}

func TestPortLinkMapping(t *testing.T) {
	_, _, ctrl := newRig(t)
	// Nine ports across two nodes: five on link 0, four on link 1.
	counts := map[int]int{}
	for p := 0; p < ctrl.Params().Ports; p++ {
		counts[ctrl.PortLink(p)]++
	}
	if counts[0] != 5 || counts[1] != 4 {
		t.Fatalf("port distribution = %v, want 5/4", counts)
	}
}

// TestFigure14StageTable: the TX deconstruction matches the paper's
// stage budget — up to ~54 cycles (~287 ns) for a 9-flit request.
func TestFigure14StageTable(t *testing.T) {
	p := DefaultParams()
	var cycles float64
	var total sim.Duration
	for _, s := range p.TXStages(9) {
		if s.Cycles <= 0 || s.Path != "TX" || s.Name == "" {
			t.Fatalf("bad stage %+v", s)
		}
		cycles += s.Cycles
		total += s.Time
	}
	if cycles < 45 || cycles > 55 {
		t.Fatalf("TX total = %.1f cycles, want ~48-54", cycles)
	}
	if ns := total.Nanoseconds(); ns < 230 || ns > 300 {
		t.Fatalf("TX total = %.0f ns, want ~287", ns)
	}
	// A 1-flit read request is substantially cheaper.
	var readCycles float64
	for _, s := range p.TXStages(1) {
		readCycles += s.Cycles
	}
	if readCycles >= cycles {
		t.Fatal("read request TX not cheaper than write request TX")
	}
	// RX path for a 9-flit response lands near the paper's 260 ns.
	var rxTotal sim.Duration
	for _, s := range p.RXStages(9) {
		rxTotal += s.Time
	}
	if ns := rxTotal.Nanoseconds(); ns < 220 || ns > 300 {
		t.Fatalf("RX total = %.0f ns, want ~260", ns)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := DefaultParams()
	bad.ClockHz = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	bad = DefaultParams()
	bad.TxFlitsPerCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero flit rate accepted")
	}
	bad = DefaultParams()
	bad.Ports = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ports accepted")
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestNewControllerErrors(t *testing.T) {
	eng := sim.NewEngine()
	amap := hmc.MustAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128)
	dev := hmc.MustDevice(eng, hmc.DefaultParams(), amap)
	if _, err := NewController(nil, dev, DefaultParams()); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewController(eng, nil, DefaultParams()); err == nil {
		t.Error("nil device accepted")
	}
	bad := DefaultParams()
	bad.ClockHz = -1
	if _, err := NewController(eng, dev, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestClockCycle(t *testing.T) {
	p := DefaultParams()
	// 187.5 MHz -> 5333 ps.
	if c := p.Cycle(); c < 5332 || c > 5334 {
		t.Fatalf("cycle = %v ps, want ~5333", int64(c))
	}
	if got := p.Cycles(10); got != 10*p.Cycle() {
		t.Fatalf("Cycles(10) = %v", got)
	}
}

// TestBankConservation: every submitted transaction completes and
// returns its carried bank slot, on the normal path and on the
// error path of a device that fails mid-stream.
func TestBankConservation(t *testing.T) {
	for _, fail := range []bool{false, true} {
		eng, dev, ctrl := newRig(t)
		g := dev.Geometry()
		amap := dev.AddressMap()
		var completed, errored int
		done := func(r Result) {
			completed++
			if r.Err {
				errored++
			}
		}
		// Three rounds over every bank, mixing reads and writes of
		// every size class, spread over all ports.
		n := 0
		for round := 0; round < 3; round++ {
			for vault := 0; vault < g.Vaults; vault++ {
				for bank := 0; bank < g.BanksPerVault; bank++ {
					addr := amap.Encode(vault, bank, uint64(round*7+bank))
					req := hmc.Request{Addr: addr, Size: 16 << uint(n%4), Write: n%3 == 0, Port: n % ctrl.Params().Ports}
					ctrl.Submit(req, done)
					n++
				}
			}
			eng.RunUntil(eng.Now() + 200*sim.Nanosecond)
			if fail && round == 1 {
				dev.TriggerThermalFailure()
			}
		}
		eng.Run()
		if ctrl.Submitted() != uint64(n) || ctrl.Completed() != uint64(n) || completed != n {
			t.Fatalf("fail=%v: submitted/completed/callbacks = %d/%d/%d, want %d",
				fail, ctrl.Submitted(), ctrl.Completed(), completed, n)
		}
		if fail != (errored > 0) {
			t.Fatalf("fail=%v: %d error completions", fail, errored)
		}
		for vault := 0; vault < g.Vaults; vault++ {
			for bank := 0; bank < g.BanksPerVault; bank++ {
				if got := ctrl.BankOutstanding(amap.Encode(vault, bank, 0)); got != 0 {
					t.Fatalf("fail=%v: vault %d bank %d outstanding = %d after drain", fail, vault, bank, got)
				}
			}
		}
	}
}

// BenchmarkControllerRoundTrip times one request through the
// controller and device at the paper's GUPS operating point: 9 ports
// x 64 tags of 128 B random reads, each completion immediately
// issuing the port's next read. The loop runs in steady state (it is
// never drained), and CI gates the path at 0 allocs/op.
func BenchmarkControllerRoundTrip(b *testing.B) {
	eng := sim.NewEngine()
	dev := hmc.MustDevice(eng, hmc.DefaultParams(), hmc.MustAddressMap(hmc.Geometries(hmc.HMC11), hmc.Block128))
	ctrl := MustController(eng, dev, DefaultParams())
	p := ctrl.Params()
	rng := sim.NewRNG(1)
	mask := dev.AddressMap().CapacityMask() &^ 127
	done := make([]func(Result), p.Ports)
	issue := func(port int) {
		ctrl.Submit(hmc.Request{Addr: rng.Uint64() & mask, Size: 128, Port: port}, done[port])
	}
	for port := range done {
		done[port] = func(Result) { issue(port) }
	}
	for tag := 0; tag < p.TagPoolDepth; tag++ {
		for port := range done {
			issue(port)
		}
	}
	run := func(n int) {
		for target := ctrl.Completed() + uint64(n); ctrl.Completed() < target; {
			eng.Step()
		}
	}
	run(100000) // warm the txn pool and the event calendar
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

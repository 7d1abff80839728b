package fpga

import (
	"fmt"

	"hmcsim/internal/hmc"
	"hmcsim/internal/sim"
)

// Result is the controller-level completion record of one
// transaction, extending the device timing with the host-side path.
type Result struct {
	hmc.AccessResult
	// PortDeliver is when the response finished draining into the
	// originating port; Submit→PortDeliver is the latency the GUPS
	// monitoring unit measures.
	PortDeliver sim.Time
}

// Latency is the port-observed round-trip time.
func (r Result) Latency() sim.Duration { return r.PortDeliver - r.AccessResult.Submit }

type node struct {
	txPipe sim.Server // flit pipeline shared by the node's ports
	rxProc sim.Server // response processing
}

// txn carries one in-flight transaction through the controller's TX
// pipeline, the device, and the RX drain. Transactions are pooled on
// the controller and act as their own engine events (sim.Handler), so
// the per-request hot path builds no closures: the same object fires
// at the link hand-off, at device completion and at drain completion,
// and the device writes its timing straight into res.
type txn struct {
	c        *Controller
	nd       *node
	link     int
	bank     int // global bank index, decoded once at Submit
	req      hmc.Request
	submit   sim.Time // port-visible submission time
	res      hmc.AccessResult
	drainEnd sim.Time
	done     func(Result)
	phase    txnPhase
	next     *txn
}

// txnPhase is the step a transaction takes when it next fires.
type txnPhase uint8

const (
	atLink   txnPhase = iota // hand the packet to the device
	atDevice                 // response back at the controller RX
	atDrain                  // response drained into the port
)

// Fire advances the transaction by one phase.
func (t *txn) Fire(e *sim.Engine) {
	switch t.phase {
	case atLink:
		t.phase = atDevice
		t.c.dev.SubmitHandler(e.Now(), t.link, t.req, &t.res, t)
	case atDevice:
		t.phase = atDrain
		t.c.receive(t)
	default:
		t.c.finish(t)
	}
}

// Controller models the Micron HMC controller IP plus Pico firmware
// plumbing between GUPS ports and the device links. It implements
// the request flow-control stop signal as a per-bank outstanding
// admission limit (hmc.Params.BankQueueDepth).
type Controller struct {
	eng  *sim.Engine
	dev  *hmc.Device
	amap *hmc.AddressMap
	p    Params

	// Per-request constants, evaluated once from p and the device
	// parameters.
	bankDepth  int
	respProc   sim.Duration
	bufferLat  sim.Duration // TX buffering (FlitsToParallel)
	txFixedLat sim.Duration // arbitration, seq/flow/CRC, SerDes conversion
	rxFixedLat sim.Duration
	// txPipe[f] and drain[f] are p.TxPipeTime(f) and p.DrainTime(f)
	// for every packet flit count f.
	txPipe, drain [maxFlits + 1]sim.Duration

	nodes  []node
	drains []sim.Server // per-port response drain

	outstanding []int      // per global bank
	waiters     [][]func() // ports blocked on a bank slot

	freeTxns    *txn
	wakeScratch []func()

	submitted uint64
	completed uint64
}

// NewController wires a controller to a device.
func NewController(eng *sim.Engine, dev *hmc.Device, p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if eng == nil || dev == nil {
		return nil, fmt.Errorf("fpga: nil engine or device")
	}
	banks := dev.Geometry().Banks()
	dp := dev.Params()
	c := &Controller{
		eng:         eng,
		dev:         dev,
		amap:        dev.AddressMap(),
		p:           p,
		bankDepth:   dp.BankQueueDepth,
		respProc:    dp.ResponseProcessing,
		bufferLat:   p.Cycles(p.FlitsToParallelCycles),
		txFixedLat:  p.Cycles(p.ArbiterCycles + p.SeqFlowCRCCycles + p.SerDesConvertCycles),
		rxFixedLat:  p.RxFixedLatency(),
		nodes:       make([]node, dev.Links()),
		drains:      make([]sim.Server, p.Ports),
		outstanding: make([]int, banks),
		waiters:     make([][]func(), banks),
	}
	for f := range c.txPipe {
		c.txPipe[f], c.drain[f] = p.TxPipeTime(f), p.DrainTime(f)
	}
	return c, nil
}

// maxFlits is the flit count of the largest packet.
const maxFlits = hmc.OverheadBytes/hmc.FlitBytes + hmc.MaxPayloadBytes/hmc.FlitBytes

// MustController is NewController that panics on error.
func MustController(eng *sim.Engine, dev *hmc.Device, p Params) *Controller {
	c, err := NewController(eng, dev, p)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns the controller configuration.
func (c *Controller) Params() Params { return c.p }

// Device returns the attached device.
func (c *Controller) Device() *hmc.Device { return c.dev }

// PortLink maps a GUPS port to the link (hmc_node) it belongs to:
// ports alternate between the two nodes, five on one and four on the
// other.
func (c *Controller) PortLink(port int) int { return port % len(c.nodes) }

// CanIssue reports whether the flow-control unit would admit a
// request to addr right now, i.e. the target bank's outstanding count
// is below the stop threshold.
func (c *Controller) CanIssue(addr uint64) bool {
	return c.outstanding[c.amap.GlobalBank(addr)] < c.bankDepth
}

// WaitBank registers fn to run once a slot frees in addr's bank
// queue. The caller re-checks CanIssue (multiple waiters may race for
// one slot).
func (c *Controller) WaitBank(addr uint64, fn func()) {
	b := c.amap.GlobalBank(addr)
	c.waiters[b] = append(c.waiters[b], fn)
}

// BankOutstanding reports the current outstanding count of the bank
// holding addr (test/diagnostic hook).
func (c *Controller) BankOutstanding(addr uint64) int {
	return c.outstanding[c.amap.GlobalBank(addr)]
}

// Submitted and Completed report transaction counts.
func (c *Controller) Submitted() uint64 { return c.submitted }
func (c *Controller) Completed() uint64 { return c.completed }

// newTxn takes a transaction from the pool (or grows it).
func (c *Controller) newTxn() *txn {
	t := c.freeTxns
	if t == nil {
		t = &txn{c: c}
	} else {
		c.freeTxns = t.next
	}
	return t
}

// releaseTxn returns a transaction to the pool.
func (c *Controller) releaseTxn(t *txn) {
	t.done = nil
	t.phase = atLink
	t.next = c.freeTxns
	c.freeTxns = t
}

// Submit accepts a request from a GUPS port at the current simulated
// time and drives it through the TX pipeline, device, and RX path;
// done runs when the response has drained into the port. done is
// stored, not wrapped: callers that pass a reusable func value (the
// ports do) keep the whole submission path allocation-free.
//
// Admission is the caller's job: ports consult CanIssue/WaitBank
// before submitting (the stop signal halts generation, it does not
// reject in-flight packets).
func (c *Controller) Submit(req hmc.Request, done func(Result)) {
	now := c.eng.Now()
	link := c.PortLink(req.Port)
	nd := &c.nodes[link]
	bank := c.amap.GlobalBank(req.Addr)
	c.outstanding[bank]++
	c.submitted++

	reqFlits := req.WireBytesRequest() / hmc.FlitBytes

	// TX: buffering, then the node flit pipeline, then the remaining
	// fixed stages ahead of link serialization.
	_, pipeEnd := nd.txPipe.ReserveAt(now, now+c.bufferLat, c.txPipe[reqFlits])

	t := c.newTxn()
	t.nd, t.link, t.bank, t.req, t.submit, t.done = nd, link, bank, req, now, done
	c.eng.AtHandler(pipeEnd+c.txFixedLat, t)
}

// receive drives the RX path once the device has written t.res:
// response processing on the node, fixed verification latency, then
// the per-port drain.
func (c *Controller) receive(t *txn) {
	// Preserve the port-visible submission time.
	t.res.Submit = t.submit
	nowRx := c.eng.Now()
	_, procEnd := t.nd.rxProc.Reserve(nowRx, c.respProc)
	respFlits := t.req.WireBytesResponse() / hmc.FlitBytes
	_, t.drainEnd = c.drains[t.req.Port].ReserveAt(nowRx, procEnd+c.rxFixedLat, c.drain[respFlits])
	c.eng.AtHandler(t.drainEnd, t)
}

// finish completes a drained transaction: bookkeeping, waiter wakeup,
// then the port callback. The txn returns to the pool first so that
// reentrant submissions from the callback reuse it.
func (c *Controller) finish(t *txn) {
	done, bank := t.done, t.bank
	c.releaseTxn(t)
	c.completed++
	c.outstanding[bank]--
	// Wake every waiter; they re-check admission. Waiters are copied
	// to a scratch buffer so wakeups that immediately re-wait append
	// to a clean list instead of the one being iterated.
	if ws := c.waiters[bank]; len(ws) > 0 {
		c.wakeScratch = append(c.wakeScratch[:0], ws...)
		c.waiters[bank] = ws[:0]
		for _, w := range c.wakeScratch {
			w()
		}
	}
	// A waiter may have taken t from the pool, but a reused txn
	// rewrites res and drainEnd only when it next fires, so the
	// record is still intact here.
	done(Result{AccessResult: t.res, PortDeliver: t.drainEnd})
}

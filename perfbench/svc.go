package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hmcsim/internal/scenario"
	"hmcsim/internal/sim"
)

// svc-mix drives one hmcsimd process with two closed-loop clients.
// Each client draws a seeded key stream over single-tenant,
// undecorated library scenarios at short windows; about half of the
// draws repeat one of the client's own earlier keys (a warm hit), the
// rest are new keys (a cold simulation). Repeats come from the
// client's svcHistory most recent keys and the server keeps
// svcCacheEntries entries, so every repeat is still cached while the
// cache, and with it the server's memory, stops growing.
var svcNames = []string{"uniform", "zipfian", "hotspot", "mixed-rw", "seqjump", "chain-4", "uniform-ddr4", "hotspot-ddr4"}

const (
	svcClients   = 2
	svcWarmupUs  = 10
	svcMeasureUs = 40
	svcRepeat    = 0.5 // share of draws that repeat an earlier key
	svcHistory   = 128
	// svcCacheEntries exceeds every key a client can still repeat plus
	// the other client's new keys in the meantime (~2 x svcHistory).
	svcCacheEntries = 1024
	svcSetups       = 21
	// svcTraceSlices is how many untraced/traced slice pairs a traced
	// run alternates.
	svcTraceSlices = 4
	// svcRefEvery spaces the reference kernel runs during the window.
	svcRefEvery = 250 * time.Millisecond
	// svcVerifyPerName is how many cold keys per scenario name are
	// re-run in process after the window and compared byte for byte.
	svcVerifyPerName = 4
	// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times.
	clockTicks = 100
)

// server is one hmcsimd process on a loopback ephemeral port.
type server struct {
	cmd  *exec.Cmd
	base string
}

// firstLine captures a process's first line of output and discards
// the rest.
type firstLine struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	line chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.sent {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.sent = true
			f.line <- string(f.buf[:i])
		}
	}
	return len(p), nil
}

// loopback is an HTTP client that never consults proxy settings.
var loopback = &http.Client{
	Transport: &http.Transport{MaxIdleConnsPerHost: svcClients, DisableCompression: true},
	Timeout:   60 * time.Second,
}

// startServer launches hmcsimd and returns once /healthz answers 200.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-entries", strconv.Itoa(svcCacheEntries), "-max-concurrent", "4")
	out := &firstLine{line: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hmcsimd: %w", err)
	}
	s := &server{cmd: cmd}
	select {
	case line := <-out.line:
		addr, ok := strings.CutPrefix(line, "hmcsimd listening on ")
		if !ok {
			_, _ = s.stop() // reporting the start-up failure instead
			return nil, fmt.Errorf("hmcsimd: unexpected first line %q", line)
		}
		s.base = "http://" + addr
	case <-time.After(20 * time.Second):
		_, _ = s.stop() // reporting the start-up failure instead
		return nil, errors.New("hmcsimd did not report its address")
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := loopback.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_, _ = s.stop() // reporting the start-up failure instead
			return nil, fmt.Errorf("hmcsimd never became healthy (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpu is the server's user plus system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15).
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:])) // fields[0] is field 3
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", raw)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// cacheCounts reads the server's cache hit and miss counters from
// /healthz.
func (s *server) cacheCounts() (hits, misses float64, err error) {
	resp, err := loopback.Get(s.base + "/healthz")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Cache struct{ Hits, Misses float64 }
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	return health.Cache.Hits, health.Cache.Misses, nil
}

// stop sends SIGTERM, waits for the process to exit (killing it after
// a grace period) and reports its peak resident set.
func (s *server) stop() (rssMB float64, err error) {
	loopback.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill() // Wait below reports the outcome
		err = <-done
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return rssMB, err
}

type svcKey struct {
	name string
	seed uint64
}

func (k svcKey) body() []byte {
	return fmt.Appendf(nil, `{"name":%q,"options":{"warmup_us":%d,"measure_us":%d,"seed":%d}}`,
		k.name, svcWarmupUs, svcMeasureUs, k.seed)
}

// svcTally is one client's measurements over one phase.
type svcTally struct {
	cold, warm []float64 // latency in ms
	coldSim    uint64    // simulated requests in cold responses
	simReqs    uint64    // simulated requests in every 2xx response
	attempted  int64
	failures   []string
}

// svcClient is one closed-loop caller with its own key history, so
// every repeat it draws has already completed (a guaranteed hit).
type svcClient struct {
	id      int
	rng     *sim.RNG
	seed    uint64
	order   []string
	pos     int
	fresh   uint64
	history []svcKey
	bodies  map[svcKey][]byte
	sims    map[svcKey]uint64
	cold    []svcKey // new keys in the order they were computed
	t       *svcTally
}

func newSvcClient(id int, seed uint64) *svcClient {
	return &svcClient{
		id: id, rng: sim.NewRNG(seed*7919 + uint64(id) + 1), seed: seed,
		order:  append([]string(nil), svcNames...),
		pos:    len(svcNames),
		bodies: map[svcKey][]byte{}, sims: map[svcKey]uint64{},
	}
}

// draw picks the next key: a repeat of an earlier key, or the next
// name of a seeded shuffle of svcNames with a fresh seed (so every
// window sees the same scenario composition).
func (c *svcClient) draw() (svcKey, bool) {
	if len(c.history) > 0 && c.rng.Float64() < svcRepeat {
		recent := c.history[max(0, len(c.history)-svcHistory):]
		return recent[c.rng.Intn(len(recent))], true
	}
	if c.pos == len(c.order) {
		for i := len(c.order) - 1; i > 0; i-- {
			j := c.rng.Intn(i + 1)
			c.order[i], c.order[j] = c.order[j], c.order[i]
		}
		c.pos = 0
	}
	name := c.order[c.pos]
	c.pos++
	c.fresh++
	return svcKey{name, c.seed*1_000_000 + uint64(c.id)*100_000 + c.fresh}, false
}

func (c *svcClient) fail(format string, args ...any) {
	c.t.failures = append(c.t.failures, fmt.Sprintf(format, args...))
}

// do issues one request and checks its answer.
func (c *svcClient) do(base string, tr *tracer) {
	k, repeat := c.draw()
	c.t.attempted++
	id := tr.begin("hmcsimd POST /v1/run", 0)
	t0 := time.Now()
	resp, err := loopback.Post(base+"/v1/run", "application/json", bytes.NewReader(k.body()))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(id)
	if err != nil {
		c.fail("%v: %v", k, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.fail("%v: status %d: %s", k, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	verdict := resp.Header.Get("X-Cache")
	if repeat {
		if verdict != "hit" {
			c.fail("%v: repeated key answered %q, want hit", k, verdict)
		} else if !bytes.Equal(body, c.bodies[k]) {
			c.fail("%v: warm body differs from its cold body", k)
		}
		c.t.warm = append(c.t.warm, ms)
		c.t.simReqs += c.sims[k]
		return
	}
	if verdict != "miss" {
		c.fail("%v: new key answered %q, want miss", k, verdict)
		return
	}
	n, err := bodySimReqs(body)
	if err != nil {
		c.fail("%v: %v", k, err)
		return
	}
	c.bodies[k], c.sims[k] = body, n
	c.history = append(c.history, k)
	c.cold = append(c.cold, k)
	c.t.cold = append(c.t.cold, ms)
	c.t.coldSim += n
	c.t.simReqs += n
}

// bodySimReqs reads the simulated request count of a single-tenant
// report: its MRPS column times the measured window.
func bodySimReqs(body []byte) (uint64, error) {
	var rep struct {
		Grids []struct {
			Cols []string
			Rows [][]string
		}
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("decoding report: %w", err)
	}
	if len(rep.Grids) == 0 || len(rep.Grids[0].Rows) != 1 {
		return 0, errors.New("report is not a single-tenant traffic grid")
	}
	g := rep.Grids[0]
	for i, col := range g.Cols {
		if col == "MRPS" && i < len(g.Rows[0]) {
			mrps, err := strconv.ParseFloat(g.Rows[0][i], 64)
			if err != nil || mrps <= 0 {
				return 0, fmt.Errorf("report MRPS %q unusable", g.Rows[0][i])
			}
			return uint64(math.Round(mrps * svcMeasureUs)), nil
		}
	}
	return 0, errors.New("report has no MRPS column")
}

// svcPhase merges the clients' tallies over one timed phase.
type svcPhase struct {
	wall, cpu  time.Duration // cpu: the server's
	cold, warm []float64
	coldSim    uint64
	simReqs    uint64
	refs       []float64 // reference kernel CPU ns
}

func (p svcPhase) merge(q svcPhase) svcPhase {
	p.wall += q.wall
	p.cpu += q.cpu
	p.cold = append(p.cold, q.cold...)
	p.warm = append(p.warm, q.warm...)
	p.coldSim += q.coldSim
	p.simReqs += q.simReqs
	p.refs = append(p.refs, q.refs...)
	return p
}

// mreqPerS is simulated requests served per server CPU-second.
func (p svcPhase) mreqPerS() float64 { return float64(p.simReqs) / p.cpu.Seconds() / 1e6 }

func measureSvc(b *bench, srv *server, clients []*svcClient, d time.Duration, tr *tracer) (svcPhase, error) {
	for _, c := range clients {
		c.t = &svcTally{}
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return svcPhase{}, err
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	var refs []float64
	// The host's speed, taken every svcRefEvery while the clients are
	// held back: the kernel waits for the requests in flight and runs
	// with no request outstanding, so it times the host, not the load.
	var gate sync.RWMutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			gate.Lock()
			refs = append(refs, refKernel(svcClients))
			gate.Unlock()
			time.Sleep(svcRefEvery)
		}
	}()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				gate.RLock()
				c.do(srv.base, tr)
				gate.RUnlock()
			}
		}()
	}
	wg.Wait()
	p := svcPhase{wall: time.Since(t0), refs: refs}
	cpu1, err := srv.cpu()
	if err != nil {
		return svcPhase{}, err
	}
	p.cpu = cpu1 - cpu0
	for _, c := range clients {
		t := c.t
		b.attempted += t.attempted
		for _, f := range t.failures {
			b.fail("svc client %d: %s", c.id, f)
		}
		p.cold = append(p.cold, t.cold...)
		p.warm = append(p.warm, t.warm...)
		p.coldSim += t.coldSim
		p.simReqs += t.simReqs
	}
	return p, nil
}

// svcOptions mirrors how hmcsimd turns a request's options into
// scenario.Options.
func svcOptions(seed uint64) scenario.Options {
	return scenario.Options{
		Warmup:  sim.Duration(svcWarmupUs * float64(sim.Microsecond)),
		Measure: sim.Duration(svcMeasureUs * float64(sim.Microsecond)),
		Seed:    seed,
	}
}

// renderInProcess runs key k through scenario.Run and renders the
// report exactly as hmcsimd caches it, returning the bytes, the
// simulated request count and the heap bytes allocated.
func renderInProcess(k svcKey) ([]byte, uint64, uint64, error) {
	spec, err := scenario.ByName(k.name)
	if err != nil {
		return nil, 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := scenario.Run(spec, svcOptions(k.seed))
	if err != nil {
		return nil, 0, 0, err
	}
	js, err := r.Report().JSON()
	runtime.ReadMemStats(&m1)
	return []byte(js), r.Total.Reads + r.Total.Writes, m1.TotalAlloc - m0.TotalAlloc, err
}

func runSvcMix(b *bench, traced bool) (metrics, error) {
	setups := make([]float64, svcSetups)
	var setupRefs []float64
	var srv *server
	for i := range setups {
		if srv != nil {
			if _, err := srv.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		// Launch time at the reference host speed, like the rates.
		setupRefs = append(setupRefs, refKernel(svcClients))
		t0 := time.Now()
		s, err := startServer(b.hmcsimd)
		if err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
		srv = s
	}

	clients := make([]*svcClient, svcClients)
	for i := range clients {
		clients[i] = newSvcClient(i, b.seed)
	}
	hits0, misses0, err := srv.cacheCounts()
	if err != nil {
		_, _ = srv.stop() // reporting the first error instead
		return nil, err
	}
	// A traced run alternates untraced and traced slices, each pair in
	// the other order from the last, so neither a slow stretch of the
	// host nor what one slice leaves to the next lands on one side only.
	var p, withSpans svcPhase
	slice, slices := b.window, 1
	if traced {
		slices = 2 * svcTraceSlices
		slice = b.window / (2 * svcTraceSlices)
	}
	for i := 0; i < slices; i++ {
		var tr *tracer
		if traced && (i%4 == 1 || i%4 == 2) {
			tr = b.tr
		}
		q, err := measureSvc(b, srv, clients, slice, tr)
		if err != nil {
			_, _ = srv.stop() // reporting the first error instead
			return nil, err
		}
		if tr != nil {
			withSpans = withSpans.merge(q)
		} else {
			p = p.merge(q)
		}
	}
	hits1, misses1, err := srv.cacheCounts()
	if err != nil {
		_, _ = srv.stop() // reporting the first error instead
		return nil, err
	}
	rss, err := srv.stop()
	if err != nil {
		b.fail("hmcsimd exit: %v", err)
	}
	// The server's own cache counters must agree with what the clients
	// saw, request for request.
	all := p.merge(withSpans)
	hits, misses := hits1-hits0, misses1-misses0
	if b.failed == 0 && (hits != float64(len(all.warm)) || misses != float64(len(all.cold))) {
		b.fail("hmcsimd counted %.0f hits and %.0f misses, clients saw %d warm and %d cold",
			hits, misses, len(all.warm), len(all.cold))
	}

	// Re-render a fixed number of cold keys per scenario name in
	// process: each must match the bytes the service returned.
	var alloc, reqs uint64
	for _, name := range svcNames {
		picked := 0
		for _, c := range clients {
			for _, k := range c.cold {
				if k.name != name || picked == svcVerifyPerName {
					continue
				}
				picked++
				b.attempted++
				js, n, a, err := renderInProcess(k)
				if err != nil {
					b.fail("%v: in-process run: %v", k, err)
					continue
				}
				if !bytes.Equal(js, c.bodies[k]) {
					b.fail("%v: service body differs from the in-process rendering", k)
				}
				alloc, reqs = alloc+a, reqs+n
			}
		}
		if picked == 0 {
			b.fail("no cold %s key was served in the window", name)
		}
	}

	out := metrics{}
	if traced {
		u, t := p.mreqPerS(), withSpans.mreqPerS()
		out.set("trace.untraced_sim_mreq_per_s", u, "Mreq/s")
		out.set("trace.traced_sim_mreq_per_s", t, "Mreq/s")
		out.set("trace.overhead_pct", (u-t)/u*100, "%")
		out.set("scenario.sim_reqs_per_run", float64(p.coldSim)/float64(len(p.cold)), "count")
		out.set("hmcsimd.hit_ratio", hits/(hits+misses), "ratio")
		return out, nil
	}
	n := float64(len(p.cold) + len(p.warm))
	coldTail, coldP := tail(p.cold)
	warmTail, warmP := tail(p.warm)
	fmt.Printf("svc_req_per_s %.1f 1/s (%d requests in %.2f s)\n", n/p.wall.Seconds(), int(n), p.wall.Seconds())
	fmt.Printf("svc_cold_ms_p50 %.3f ms, svc_cold_ms_tail %.3f ms (%s of %d)\n", median(p.cold), coldTail, coldP, len(p.cold))
	fmt.Printf("svc_warm_ms_p50 %.3f ms, svc_warm_ms_tail %.3f ms (%s of %d)\n", median(p.warm), warmTail, warmP, len(p.warm))
	fmt.Printf("hit ratio %.3f, server CPU %.2f s\n", float64(len(p.warm))/n, p.cpu.Seconds())
	// The run's host speed is the median of every kernel sample,
	// set-up and window alike.
	raw, ref := p.mreqPerS(), median(append(setupRefs, p.refs...))
	fmt.Printf("raw %.4f Mreq per server CPU-second, reference kernel %.3f ms\n", raw, ref/1e6)
	out.set("sim_mreq_per_ref_s", raw*ref/refNominal, "Mreq/s")
	out.set("alloc_bytes_per_req", float64(alloc)/float64(reqs), "B")
	out.set("max_rss_mb", rss, "MB")
	out.set("setup_s", median(setups)*refNominal/ref, "s")
	out.set("ok_frac", 1-float64(b.failed)/float64(b.attempted), "ratio")
	return out, nil
}

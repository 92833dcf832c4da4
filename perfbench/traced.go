package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lbic"
	"lbic/client"
	"lbic/internal/cache"
	"lbic/internal/cpu"
	"lbic/internal/emu"
	"lbic/internal/metrics"
	"lbic/internal/ports"
	"lbic/internal/trace"
	"lbic/internal/tracecache"
)

// epoch anchors nanotime's monotonic readings.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// cellSpec is one cell the traced run builds itself with cpu.New.
type cellSpec struct {
	name  string
	port  lbic.PortConfig
	insts uint64
	// Exactly one source: a program, a generator, or an uploaded trace. A
	// program with replay set streams from a recording, as the trace cache
	// serves it; without, from the live emulator.
	prog   *lbic.Program
	gen    *lbic.GenParams
	upload []byte
	replay bool
}

// streamKey identifies the instruction stream a cell consumes.
func (c cellSpec) streamKey() string { return fmt.Sprintf("%s/i%d", c.name, c.insts) }

// maxEventCells bounds how many cells capture their cache accesses for the
// hierarchy replay.
const maxEventCells = 12

// maxStreams bounds how many distinct streams the decode replays walk.
const maxStreams = 16

// tracedRun builds the workload's cells itself, times the calls into each
// layer from outside, replays captured inputs into the layers the core
// calls through concrete types, and reports the per-layer metrics.
func tracedRun(mk func() workload, name string, seed uint64, outDir string) (result, error) {
	w := mk()
	if err := w.setup(seed); err != nil {
		w.close()
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer w.close()

	tr := lbic.NewRequestTrace()
	ctx, root := lbic.StartSpan(lbic.WithTrace(context.Background(), tr), "traced "+name)
	lt := &layerTimer{
		ctx:     ctx,
		rec:     map[string]*tracecache.Trace{},
		capture: &readyCapture{},
	}
	m := map[string]metric{}
	cells, err := w.cells()
	if err != nil {
		return result{}, err
	}
	for _, spec := range cells {
		if err := lt.cell(spec); err != nil {
			return result{}, err
		}
	}
	steps := []struct {
		name string
		fn   func(map[string]metric) error
	}{
		{"decode replay", lt.decode},
		{"step under ideal", lt.idealStep},
		{"grant replay", lt.grantReplay},
		{"cache replay", lt.cacheReplay},
		{"observe replay", lt.observeReplay},
		{"report encoding", lt.reportEncoding},
		{"oracle", lt.oracle},
		{"experiments sweep", func(m map[string]metric) error { return lt.sweep(m, w.traceInsts(), tr) }},
		{"served round", func(m map[string]metric) error { return lt.served(m, seed) }},
	}
	for _, st := range steps {
		_, sp := lbic.StartSpan(ctx, st.name)
		err := st.fn(m)
		sp.End()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	lt.cellMetrics(m)
	root.End()

	if err := writeSpans(outDir, name, seed, tr); err != nil {
		return result{}, err
	}
	fmt.Printf("traced run: %d cells\n", lt.n)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	t := lt.tally
	fmt.Printf("error_rate: %d/%d\n", t.failed, t.attempted)
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// writeSpans exports the traced run's spans with the repository's own
// exporters, as a Chrome trace and as lbic-trace/v1 JSONL.
func writeSpans(dir, name string, seed uint64, tr *lbic.RequestTrace) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := tr.Snapshot()
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	var chrome, jsonl bytes.Buffer
	if err := lbic.WriteChromeTrace(&chrome, name, spans); err != nil {
		return err
	}
	if err := lbic.WriteTraceJSONL(&jsonl, name, tr.Epoch().UnixNano(), spans); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", chrome.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.jsonl", jsonl.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s.trace.{json,jsonl}\n", len(spans), base)
	return nil
}

// access is one captured granted L1 access.
type access struct {
	cycle uint64
	line  uint64
	write bool
}

// accessLog captures a run's granted L1 accesses from its event stream.
type accessLog struct{ acc []access }

func (l *accessLog) Emit(e trace.Event) {
	if e.Kind == trace.EvAccess || e.Kind == trace.EvWrite {
		l.acc = append(l.acc, access{cycle: e.Cycle, line: e.Line, write: e.Kind == trace.EvWrite})
	}
}

// layerTimer accumulates the traced run's per-layer timings.
type layerTimer struct {
	ctx context.Context
	tally

	rec      map[string]*tracecache.Trace // recorded streams by streamKey
	recordNs int64
	specs    []cellSpec
	results  []lbic.Result
	logs     []*accessLog
	capture  *readyCapture

	n                      int
	next, grant            callTimer
	offered, granted       int64
	cycles, ff, insts      uint64
	stepped                uint64
	bareRunNs, tracedRunNs int64
	mallocs                uint64
	conflicts              uint64
	l1Accesses, l1Hits     uint64
	accessNs, advanceNs    float64 // per call, from the cache replay
	observeNs              float64 // per call, from the histogram replay
}

// recording returns the cell's stream recorded once, as the trace cache
// would hold it.
func (lt *layerTimer) recording(c cellSpec) (*tracecache.Trace, error) {
	key := c.streamKey()
	if t, ok := lt.rec[key]; ok {
		return t, nil
	}
	var t *tracecache.Trace
	switch {
	case c.upload != nil:
		_, tr, err := tracecache.ReadStream(bytes.NewReader(c.upload))
		if err != nil {
			return nil, err
		}
		t = tr
	default:
		src, err := c.liveStream()
		if err != nil {
			return nil, err
		}
		t0 := nanotime()
		t = tracecache.RecordWith(src, tracecache.RecordOptions{MaxInsts: c.insts, OmitValues: c.gen != nil})
		lt.recordNs += nanotime() - t0
	}
	lt.rec[key] = t
	return t, nil
}

// liveStream is the cell's stream from its program or generator.
func (c cellSpec) liveStream() (trace.Stream, error) {
	if c.prog != nil {
		return emu.New(c.prog)
	}
	rp, err := c.gen.Resolve()
	if err != nil {
		return nil, err
	}
	return rp.Stream()
}

// stream is the cell's instruction stream as the workload consumes it.
func (lt *layerTimer) stream(c cellSpec) (trace.Stream, error) {
	if c.upload != nil || c.replay {
		t, err := lt.recording(c)
		if err != nil {
			return nil, err
		}
		return t.NewReader(), nil
	}
	return c.liveStream()
}

// reference runs the cell through the public entry point, untraced.
func (c cellSpec) reference(ctx context.Context, events lbic.EventSink) (lbic.Result, error) {
	cfg := lbic.DefaultConfig()
	cfg.Port = c.port
	cfg.MaxInsts = c.insts
	cfg.Events = events
	switch {
	case c.upload != nil:
		rt, err := lbic.ReadTraceStream(bytes.NewReader(c.upload))
		if err != nil {
			return lbic.Result{}, err
		}
		return lbic.SimulateTrace(ctx, rt, cfg)
	case c.prog != nil:
		return lbic.SimulateContext(ctx, c.prog, cfg)
	}
	return lbic.SimulateGenerator(ctx, *c.gen, cfg)
}

// build wires a core the way the root package does, optionally wrapping
// the stream and the arbiter in timers.
func build(c cellSpec, stream trace.Stream, ta *timedArbiter) (*cpu.Core, ports.Arbiter, error) {
	params := cache.DefaultParams()
	arb, err := newArbiter(c.port, params.L1.LineSize)
	if err != nil {
		return nil, nil, err
	}
	hier, err := cache.NewHierarchy(params)
	if err != nil {
		return nil, nil, err
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = c.insts
	var use ports.Arbiter = arb
	if ta != nil {
		ta.Arbiter = arb
		use = ta
	}
	core, err := cpu.New(stream, hier, use, cfg)
	return core, arb, err
}

// cell runs one cell three ways — untraced, traced, and through
// lbic.Simulate* as the reference — and checks that the traced run's
// simulated counts equal the other two.
func (lt *layerTimer) cell(c cellSpec) error {
	ctx, sp := lbic.StartSpan(lt.ctx, "cell "+c.name+" "+c.port.Key())
	defer sp.End()
	lt.n++
	lt.attempted++
	if c.upload != nil || c.replay {
		// Record (or decode) the stream before counting the cell's
		// allocations: the trace cache holds it once for every cell.
		if _, err := lt.recording(c); err != nil {
			return err
		}
	}

	// Untraced, built as the root package builds it.
	m0 := mallocs()
	_, phase := lbic.StartSpan(ctx, "untraced")
	stream, err := lt.stream(c)
	if err != nil {
		return err
	}
	bare, _, err := build(c, stream, nil)
	if err != nil {
		return err
	}
	t0 := nanotime()
	bst, err := bare.RunContext(ctx)
	bareNs := nanotime() - t0
	phase.End()
	lt.mallocs += mallocs() - m0
	if err != nil {
		return fmt.Errorf("%s on %s: %w", c.name, c.port.Key(), err)
	}

	// Traced: the stream's Next and the arbiter's Grant timed per call.
	_, phase = lbic.StartSpan(ctx, "traced")
	if stream, err = lt.stream(c); err != nil {
		return err
	}
	ts := &timedStream{s: stream}
	ta := &timedArbiter{capture: lt.capture}
	traced, arb, err := build(c, ts, ta)
	if err != nil {
		return err
	}
	t0 = nanotime()
	tst, err := traced.RunContext(ctx)
	tracedNs := nanotime() - t0
	phase.SetAttr("next_calls", ts.timer.calls)
	phase.SetAttr("grant_calls", ta.timer.calls)
	phase.End()
	if err != nil {
		return fmt.Errorf("%s on %s traced: %w", c.name, c.port.Key(), err)
	}

	// Reference, capturing the cache accesses for the hierarchy replay.
	_, phase = lbic.StartSpan(ctx, "reference")
	var log *accessLog
	var sink lbic.EventSink
	if len(lt.logs) < maxEventCells {
		log = &accessLog{}
		sink = log
	}
	ref, err := c.reference(ctx, sink)
	phase.End()
	if err != nil {
		return fmt.Errorf("%s on %s reference: %w", c.name, c.port.Key(), err)
	}
	if log != nil {
		lt.logs = append(lt.logs, log)
	}

	got := [4]uint64{tst.Cycles, tst.Committed, traced.FastForwarded(), conflicts(arb)}
	want := [4]uint64{ref.Cycles, ref.Insts, bare.FastForwarded(), ref.PortConflicts()}
	if got != want || bst.Cycles != ref.Cycles {
		lt.fail("traced %s on %s: cycles/insts/fast-forwarded/conflicts %v, untraced %v (bare cycles %d)",
			c.name, c.port.Key(), got, want, bst.Cycles)
	}
	sp.SetAttr("cycles", tst.Cycles)
	sp.SetAttr("insts", tst.Committed)
	sp.SetAttr("untraced_ns", bareNs)
	sp.SetAttr("traced_ns", tracedNs)

	lt.specs = append(lt.specs, c)
	lt.results = append(lt.results, ref)
	lt.next.add(ts.timer)
	lt.grant.add(ta.timer)
	lt.offered += ta.offered
	lt.granted += ta.grants
	lt.cycles += tst.Cycles
	lt.ff += traced.FastForwarded()
	lt.stepped += tst.Cycles - traced.FastForwarded()
	lt.insts += tst.Committed
	lt.bareRunNs += bareNs
	lt.tracedRunNs += tracedNs
	lt.conflicts += ref.PortConflicts()
	lt.l1Accesses += ref.Mem.Accesses
	lt.l1Hits += ref.Mem.Hits
	return nil
}

// distinctStreams lists the first maxStreams distinct streams the cells use.
func (lt *layerTimer) distinctStreams() []cellSpec {
	seen := map[string]bool{}
	var out []cellSpec
	for _, c := range lt.specs {
		if k := c.streamKey(); !seen[k] && len(out) < maxStreams {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// decode times each decoder over the workload's own streams in a tight
// loop: recorded-trace replay, the live emulator, and the generators, plus
// recording and decoding a serialized upload.
func (lt *layerTimer) decode(m map[string]metric) error {
	var (
		d                      trace.Dyn
		replayN, emuN, genN    int64
		replayNs, emuNs, genNs int64
		uploads                int
		uploadNs               int64
	)
	for _, c := range lt.distinctStreams() {
		t, err := lt.recording(c)
		if err != nil {
			return err
		}
		r := t.NewReader()
		t0 := nanotime()
		for r.Next(&d) {
			replayN++
		}
		replayNs += nanotime() - t0

		raw := c.upload
		if raw == nil {
			var buf bytes.Buffer
			if err := tracecache.WriteStream(&buf, c.name, t); err != nil {
				return err
			}
			raw = buf.Bytes()
		}
		t0 = nanotime()
		if _, _, err := tracecache.ReadStream(bytes.NewReader(raw)); err != nil {
			return err
		}
		uploadNs += nanotime() - t0
		uploads++

		if c.upload != nil && c.gen == nil {
			continue
		}
		src, err := c.liveStream()
		if err != nil {
			return err
		}
		t0 = nanotime()
		var n int64
		for n < int64(c.insts) && src.Next(&d) {
			n++
		}
		dt := nanotime() - t0
		if c.prog != nil {
			emuN, emuNs = emuN+n, emuNs+dt
		} else {
			genN, genNs = genN+n, genNs+dt
		}
	}
	m["tracecache.next_ns"] = metric{perCall(replayNs, replayN), "ns"}
	m["emu.next_ns"] = metric{perCall(emuNs, emuN), "ns"}
	m["workload.gen_next_ns"] = metric{perCall(genNs, genN), "ns"}
	m["tracecache.record_s"] = metric{float64(lt.recordNs) / 1e9, "s"}
	m["tracecache.upload_decode_ms"] = metric{perCall(uploadNs, int64(uploads)) / 1e6, "ms"}
	return nil
}

func perCall(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// idealStep times Core.Step under an Ideal arbiter on each replayed stream,
// which isolates scheduling from the port and decode layers.
func (lt *layerTimer) idealStep(m map[string]metric) error {
	var ns int64
	var steps uint64
	for _, c := range lt.distinctStreams() {
		t, err := lt.recording(c)
		if err != nil {
			return err
		}
		c.port = lbic.IdealPort(4)
		core, _, err := build(c, t.NewReader(), nil)
		if err != nil {
			return err
		}
		t0 := nanotime()
		st, err := core.RunContext(lt.ctx)
		ns += nanotime() - t0
		if err != nil {
			return err
		}
		steps += st.Cycles - core.FastForwarded()
	}
	m["cpu.step_ns"] = metric{perCall(ns, int64(steps)), "ns"}
	return nil
}

// grantReplay times every registered organization's Grant over the ready
// lists the traced cells offered, in order.
func (lt *layerTimer) grantReplay(m map[string]metric) error {
	cp := lt.capture
	if len(cp.ends) == 0 {
		return fmt.Errorf("no ready lists captured")
	}
	for _, p := range replayPorts() {
		ns, err := replayGrant(p, cp)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Key(), err)
		}
		tok, _, _ := strings.Cut(p.Key(), "-")
		m["ports."+tok+".grant_ns"] = metric{ns, "ns"}
	}
	return nil
}

// replayGrant returns the median over three passes of ns per Grant call.
func replayGrant(p lbic.PortConfig, cp *readyCapture) (ns float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grant replay panicked: %v", r)
		}
	}()
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		arb, err := newArbiter(p, cache.DefaultParams().L1.LineSize)
		if err != nil {
			return 0, err
		}
		var dst []int
		start := 0
		t0 := nanotime()
		for i, end := range cp.ends {
			dst = arb.Grant(uint64(i), cp.reqs[start:end], dst[:0])
			start = end
		}
		passes = append(passes, perCall(nanotime()-t0, int64(len(cp.ends))))
	}
	return median(passes), nil
}

// cacheReplay replays the captured accesses into a fresh hierarchy, one
// Advance per cycle and the cycle's accesses after it, timing each call.
func (lt *layerTimer) cacheReplay(m map[string]metric) error {
	var adv, acc callTimer
	for i, log := range lt.logs {
		if len(log.acc) == 0 {
			continue
		}
		params := cache.DefaultParams()
		hier, err := cache.NewHierarchy(params)
		if err != nil {
			return err
		}
		shift := uint(params.L1.LineBits())
		last := log.acc[len(log.acc)-1].cycle
		j := 0
		for now := uint64(0); now <= last; now++ {
			t0 := nanotime()
			hier.Advance(now)
			adv.stop(t0)
			for ; j < len(log.acc) && log.acc[j].cycle == now; j++ {
				a := log.acc[j]
				t0 = nanotime()
				hier.Access(now, a.line<<shift, a.write, int64(j))
				acc.stop(t0)
			}
			hier.Drain()
		}
		if st, ref := hier.Stats(), lt.results[i].Mem; st.Accesses != ref.Accesses || st.Hits != ref.Hits {
			fmt.Printf("cache replay of %s: %d accesses %d hits, run had %d and %d\n",
				lt.specs[i].name, st.Accesses, st.Hits, ref.Accesses, ref.Hits)
		}
	}
	lt.advanceNs, lt.accessNs = adv.perCall(), acc.perCall()
	m["cache.access_ns"] = metric{lt.accessNs, "ns"}
	m["cache.advance_ns"] = metric{lt.advanceNs, "ns"}
	m["cache.l1_miss_ratio"] = metric{1 - float64(lt.l1Hits)/float64(max(lt.l1Accesses, 1)), "ratio"}
	return nil
}

// observeReplay times histogram Observe over the grant counts the traced
// cells produced, as the core records them each cycle.
func (lt *layerTimer) observeReplay(m map[string]metric) error {
	vals := lt.capture.grants
	top := 0
	for _, v := range vals {
		top = max(top, v)
	}
	h := metrics.NewHistogram("grants", "", "grants", top+1)
	const passes = 5
	t0 := nanotime()
	for p := 0; p < passes; p++ {
		for _, v := range vals {
			h.Observe(v)
		}
	}
	lt.observeNs = perCall(nanotime()-t0, int64(passes*len(vals)))
	m["metrics.observe_ns"] = metric{lt.observeNs, "ns"}
	return nil
}

// reportEncoding times NewReport plus WriteJSON over every reference result.
func (lt *layerTimer) reportEncoding(m map[string]metric) error {
	const reps = 5
	var ns, size int64
	for _, res := range lt.results {
		for r := 0; r < reps; r++ {
			var buf bytes.Buffer
			t0 := nanotime()
			if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
				return err
			}
			ns += nanotime() - t0
			size += int64(buf.Len())
		}
	}
	n := int64(reps * len(lt.results))
	m["report.encode_us"] = metric{perCall(ns, n) / 1e3, "us"}
	m["report.bytes"] = metric{perCall(size, n), "bytes"}
	return nil
}

// oracleCells bounds how many program cells the oracle comparison runs.
const oracleCells = 6

// oracle runs program cells live with and without Verify and reports the
// ratio of their times; every verified run must be oracle-clean.
func (lt *layerTimer) oracle(m map[string]metric) error {
	var plain, verified int64
	n := 0
	for _, c := range lt.specs {
		if c.prog == nil || n == oracleCells {
			continue
		}
		n++
		cfg := lbic.DefaultConfig()
		cfg.Port = c.port
		cfg.MaxInsts = c.insts
		t0 := nanotime()
		if _, err := lbic.SimulateContext(lt.ctx, c.prog, cfg); err != nil {
			return err
		}
		plain += nanotime() - t0
		cfg.Verify = true
		lt.attempted++
		t0 = nanotime()
		res, err := lbic.SimulateContext(lt.ctx, c.prog, cfg)
		verified += nanotime() - t0
		if err != nil || res.Verify == nil {
			lt.fail("oracle on %s %s: %v", c.name, c.port.Key(), err)
		}
	}
	m["oracle.verify_ratio"] = metric{float64(verified) / float64(max(plain, 1)), "ratio"}
	return nil
}

// sweep runs the paper's tables through one traced experiments.Sweep and
// counts its runner cells, retries and trace-cache reuse from the spans.
func (lt *layerTimer) sweep(m map[string]metric, insts uint64, tr *lbic.RequestTrace) error {
	p := &paperSweep{}
	if err := p.setup(0); err != nil {
		return err
	}
	sw := newPaperSweep(insts)
	sw.Spans = tr
	points := map[string]bool{}
	sw.OnCell = func(key string, err error) {
		if k, ok := memoKey(key); ok && err == nil {
			points[k] = true
		}
	}
	before := len(tr.Snapshot())
	for _, t := range p.tables {
		if _, err := t.gen(sw); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	lt.attempted++
	if f := sw.Failures(); len(f) > 0 {
		lt.fail("traced sweep: %d ERR cells, first %s: %v", len(f), f[0].Key, f[0].Err)
	}
	var cells, retries, sims int
	for _, s := range tr.Snapshot()[before:] {
		switch {
		case strings.HasPrefix(s.Name, "cell "):
			cells++
			if a, ok := s.Attrs["attempts"].(int); ok && a > 1 {
				retries += a - 1
			}
		case strings.HasPrefix(s.Name, "simulate ") && !strings.HasPrefix(s.Name, "simulate batch"):
			sims++
		}
	}
	// sim_kips counts each distinct simulated point once at the budget;
	// the spans must agree that the sweep simulated exactly those points.
	lt.attempted++
	if sims != len(points) {
		lt.fail("traced sweep simulated %d runs, cell keys name %d points", sims, len(points))
	}
	ts := sw.Trace.Stats()
	m["runner.cells"] = metric{float64(cells), "count"}
	m["runner.retries"] = metric{float64(retries), "count"}
	m["tracecache.hit_ratio"] = metric{float64(ts.Hits) / float64(max(ts.Hits+ts.Records, 1)), "ratio"}
	return nil
}

// served runs one served-mix round and reads the server's counters.
func (lt *layerTimer) served(m map[string]metric, seed uint64) error {
	sm := &servedMix{}
	defer sm.close()
	if err := sm.setup(seed); err != nil {
		return err
	}
	if err := sm.beforeRound(); err != nil {
		return err
	}
	var s roundSample
	if err := sm.round(&s); err != nil {
		return err
	}
	snap, err := sm.srv.cl.Metrics(lt.ctx)
	if err != nil {
		return err
	}
	count := func(name string) float64 {
		v, _ := client.CounterValue(snap, name)
		return float64(v)
	}
	checked, err := sm.check()
	if err != nil {
		return err
	}
	lt.add(s.tally)
	lt.add(checked)
	var lat, direct time.Duration
	for _, d := range s.all {
		lat += d
	}
	for _, d := range sm.direct {
		direct += d
	}
	hits, misses := count("resultcache.hits"), count("resultcache.misses")
	m["resultcache.hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	m["server.singleflight_shared"] = metric{count("server.singleflight_shared"), "count"}
	m["server.rejected"] = metric{count("server.rejected_queue_full") + count("server.rejected_draining"), "count"}
	m["server.cells_executed"] = metric{count("server.cells_executed"), "count"}
	m["server.overhead_ms"] = metric{ms(lat-direct) / float64(max(len(s.all), 1)), "ms"}
	return nil
}

// cellMetrics reports the traced cells' counts and where their time went.
func (lt *layerTimer) cellMetrics(m map[string]metric) {
	decode, grant := lt.next.net(), lt.grant.net()
	total := float64(lt.bareRunNs)
	// The hierarchy and the histograms are called through concrete types;
	// their shares are estimated from the isolated replays' per-call costs.
	// The core observes two histograms per stepped cycle (grants per cycle
	// and MSHR occupancy).
	cacheNs := lt.accessNs*float64(lt.l1Accesses) + lt.advanceNs*float64(lt.stepped)
	metricsNs := lt.observeNs * 2 * float64(lt.stepped)
	sched := total - decode - grant - cacheNs - metricsNs

	m["cpu.self_ns_per_inst"] = metric{(total - decode - grant) / float64(max(lt.insts, 1)), "ns"}
	m["cpu.allocs_per_cell"] = metric{float64(lt.mallocs) / float64(max(lt.n, 1)), "count"}
	m["cpu.fastforward_frac"] = metric{float64(lt.ff) / float64(max(lt.cycles, 1)), "ratio"}
	m["cpu.cycles"] = metric{float64(lt.cycles), "count"}
	m["cpu.insts"] = metric{float64(lt.insts), "count"}
	m["cpu.ipc"] = metric{float64(lt.insts) / float64(max(lt.cycles, 1)), "inst/cycle"}
	m["ports.grant_ns"] = metric{lt.grant.perCall(), "ns"}
	m["ports.grant_yield"] = metric{float64(lt.granted) / float64(max(lt.offered, 1)), "ratio"}
	m["ports.conflicts"] = metric{float64(lt.conflicts), "count"}
	m["trace.overhead_s"] = metric{float64(lt.tracedRunNs-lt.bareRunNs) / 1e9, "s"}

	shares := []struct {
		name string
		ns   float64
	}{
		{"decode", decode}, {"arbiter", grant}, {"cache", cacheNs}, {"metrics", metricsNs}, {"sched", sched},
	}
	fmt.Printf("where one cell's time goes (%d cells, %.3f s untraced):\n", lt.n, total/1e9)
	for _, s := range shares {
		m["cell."+s.name+"_share"] = metric{s.ns / total, "ratio"}
		fmt.Printf("  %-8s %6.1f%%\n", s.name, 100*s.ns/total)
	}
	fmt.Printf("tracing overhead: %.3f s traced, %.3f s untraced\n", float64(lt.tracedRunNs)/1e9, total/1e9)
}

// sortedSet returns a map's keys in order.
func sortedSet[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

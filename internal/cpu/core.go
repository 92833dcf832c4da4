package cpu

import (
	"context"
	"fmt"
	"math"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/metrics"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// entry state machine. Memory operations follow:
//
//	load:  waiting → ready → issued(AGU) → [order-parked | fwd-parked |
//	       mem-pending → mem-wait] → done
//	store: waiting → ready → issued(AGU) → wait-data → done → (commit:
//	       store buffer) → written
type state uint8

const (
	stEmpty state = iota
	stWaiting
	stReady
	stIssued
	stOrderParked // load: an older store's address is unknown
	stFwdParked   // load: waiting on a matching, unready store
	stMemPending  // load: competing for a cache port
	stMemWait     // load: cache access in flight
	stWaitData    // store: address generated, data operand pending
	stDone
)

var stateNames = [...]string{"empty", "waiting", "ready", "issued",
	"order-parked", "fwd-parked", "mem-pending", "mem-wait", "wait-data", "done"}

// String returns the state's diagnostic name.
func (s state) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

const (
	evExec    = iota // functional unit completes; result ready
	evAGU            // load/store address generation completes
	evMem            // cache completes a load
	evWrite          // cache completes a committed store's write
	wheelSize = 64   // must exceed every FU and hit latency
)

type event struct {
	kind int32
	idx  int32 // RUU index (evExec/evAGU/evMem) or store buffer slot (evWrite)
}

type entry struct {
	dyn       trace.Dyn
	state     state
	src1Ready bool
	src2Ready bool
	addrDone  bool
	deps      []int32 // packed dependent links: ruuIdx<<2 | operand
	// waiterHead chains the loads forward-parked on this entry (a store);
	// waiterNext threads this entry into another entry's chain (a load).
	// -1 terminates. The chains replace the old per-seq waiter map.
	waiterHead int32
	waiterNext int32
}

// fwdRef tracks an in-flight store for store-to-load forwarding, indexed by
// the 8-byte-aligned address granules the store touches (see fwdTable).
type fwdRef struct {
	seq  uint64
	addr uint64
	size uint8
	ruu  int32 // RUU index pre-commit, -(slot+1) once in store buffer slot
}

type storeBufEntry struct {
	seq        uint64
	addr       uint64
	size       uint8
	live       bool
	granted    bool
	waiterHead int32 // loads forward-parked on this committed store, -1 none
}

type orderRef struct {
	seq uint64
	idx int32
}

// Verifier observes the core's memory pipeline for invariant checking. The
// oracle in internal/oracle implements it; the interface lives here (with
// only ports/trace types in its signatures) so the checker can depend on the
// core without an import cycle. All hooks are called synchronously from
// Step; a violation is latched and surfaced via Err, which the core checks
// at the end of every cycle.
type Verifier interface {
	// ObserveDispatch sees every memory operation entering the window, in
	// program order, with its ground-truth address, size, and value.
	ObserveDispatch(d *trace.Dyn)
	// ObserveGrant sees every arbitration: the ready list handed to the
	// arbiter (possibly empty — stateful arbiters get a Grant call each
	// cycle) and the granted indices.
	ObserveGrant(now uint64, ready []ports.Request, granted []int)
	// ObserveAccess sees every granted request's hierarchy access; blocked
	// reports an MSHR-exhaustion rejection (the request will retry).
	ObserveAccess(now uint64, seq uint64, store, blocked bool)
	// ObserveForward sees a load serviced by store-to-load forwarding from
	// the store with sequence number storeSeq.
	ObserveForward(now uint64, loadSeq, storeSeq uint64)
	// Err returns the first latched invariant violation, or nil.
	Err() error
}

// Core simulates one program run cycle by cycle.
type Core struct {
	cfg    Config
	stream trace.Stream
	hier   *cache.Hierarchy
	arb    ports.Arbiter

	now   uint64
	stats Stats

	// Forward-progress watchdog: watchdog is the no-progress cycle limit
	// (0 = disabled), lastProgress the last cycle that committed an
	// instruction or retired a committed store.
	watchdog     uint64
	lastProgress uint64

	// fastForwarded counts cycles elided by the idle-cycle skip (still
	// included in Cycles; see fastforward.go).
	fastForwarded uint64

	// RUU ring.
	entries []entry
	head    int
	count   int
	nextSeq uint64

	// One-instruction lookahead into the stream.
	peeked    bool
	peekDyn   trace.Dyn
	streamEOF bool

	lastWriter [isa.NumRegs]int32 // RUU index producing each register, -1 if none

	ready []readyNode // ready instructions, ascending seq (see pushReady)

	wheel [wheelSize][]event

	// LSQ-derived structures.
	lsqCount    int
	storeOrder  []orderRef // dispatched stores, FIFO from soHead; popped when address known
	soHead      int        // consumed prefix of storeOrder (compacted, never reallocated)
	orderParked []int32    // loads blocked on unknown older store addresses
	orderedMin  uint64     // barrier seq at the last orderParked scan (see releaseOrderParked)
	fwd         fwdTable   // store-forwarding index by address granule
	pending     pendingLoads

	// Committed store buffer (FIFO ring over slots).
	storeBuf    []storeBufEntry
	sbHead      int
	sbCount     int
	sbUngranted int // live slots not yet granted a cache port
	storeLive   int // live (incl. granted, unwritten) stores

	// Per-cycle FU accounting.
	fuUsed [isa.NumClasses]int      // pipelined issues this cycle
	fuBusy [isa.NumClasses][]uint64 // release times for unpipelined units

	reqBuf   []ports.Request
	reqSlot  []int32 // store buffer slot of each store at the front of reqBuf
	grantBuf []int

	// Pooled scratch for releaseOrderParked, so steady-state stepping never
	// allocates.
	releaseScratch []int32

	// broken latches the first internal invariant violation the core finds
	// itself; Step returns it when a Verifier is attached.
	broken error

	// arbQuiescent is non-nil when the arbiter implements ports.Quiescer;
	// fast-forward needs it to prove the arbiter holds no queued work.
	arbQuiescent func() bool

	// Observability. The gauges and histogram are live metric objects a
	// run report's registry adopts; events is nil unless a structured
	// event trace was requested.
	grantHist *metrics.Histogram
	ruuOcc    *metrics.Gauge
	lsqOcc    *metrics.Gauge
	sbOcc     *metrics.Gauge
	events    trace.EventSink
	lineShift uint // log2(L1 line size), for event line numbers

	// verify, when non-nil, receives the memory-pipeline observations and
	// enables the per-cycle self-checks (CPI stall stack sums to cycles).
	verify Verifier
}

// New prepares a run of stream against the given memory hierarchy and port
// arbiter.
func New(stream trace.Stream, hier *cache.Hierarchy, arb ports.Arbiter, cfg Config) (*Core, error) {
	if stream == nil {
		return nil, fmt.Errorf("cpu: nil instruction stream")
	}
	if hier == nil {
		return nil, fmt.Errorf("cpu: nil memory hierarchy")
	}
	if arb == nil {
		return nil, fmt.Errorf("cpu: nil port arbiter")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier.Params().HitLat >= wheelSize {
		return nil, fmt.Errorf("cpu: hit latency %d exceeds event wheel %d", hier.Params().HitLat, wheelSize)
	}
	c := &Core{
		cfg:      cfg,
		stream:   stream,
		hier:     hier,
		arb:      arb,
		entries:  make([]entry, cfg.RUUSize),
		storeBuf: make([]storeBufEntry, cfg.StoreBufferSize),
		grantHist: metrics.NewHistogram("cpu.grants_per_cycle",
			"port grants per cycle (arbiter bandwidth actually used)",
			"grants", arb.PeakWidth()+1),
		ruuOcc:    metrics.NewGauge("cpu.ruu_occupancy", "instructions in the window per commit cycle"),
		lsqOcc:    metrics.NewGauge("cpu.lsq_occupancy", "memory operations in the LSQ per commit cycle"),
		sbOcc:     metrics.NewGauge("cpu.storebuf_occupancy", "committed stores awaiting write per commit cycle"),
		lineShift: uint(hier.Params().L1.LineBits()),
	}
	c.orderedMin = math.MaxUint64
	switch {
	case cfg.WatchdogCycles == 0:
		c.watchdog = DefaultWatchdogCycles
	case cfg.WatchdogCycles > 0:
		c.watchdog = uint64(cfg.WatchdogCycles)
	}
	for r := range c.lastWriter {
		c.lastWriter[r] = -1
	}
	for i := range c.entries {
		c.entries[i].waiterHead = -1
		c.entries[i].waiterNext = -1
	}
	// Every store with a generated address is in the LSQ or the store buffer
	// and touches at most two granules, bounding the forwarding index.
	c.fwd.init(2 * (cfg.LSQSize + cfg.StoreBufferSize))
	if q, ok := arb.(ports.Quiescer); ok {
		c.arbQuiescent = q.Quiescent
	}
	return c, nil
}

// Stats returns a snapshot of the run statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.now
	return s
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// SetEventSink directs the structured event trace to s (nil disables it).
// Set it before the first Step.
func (c *Core) SetEventSink(s trace.EventSink) { c.events = s }

// SetVerifier attaches an invariant checker (nil disables verification).
// Set it before the first Step; Step fails on the first latched violation.
func (c *Core) SetVerifier(v Verifier) { c.verify = v }

// GrantsPerCycle returns the live per-cycle port-grant histogram.
func (c *Core) GrantsPerCycle() *metrics.Histogram { return c.grantHist }

// OccupancyGauges returns the live per-cycle occupancy gauges: RUU, LSQ,
// and store buffer.
func (c *Core) OccupancyGauges() []*metrics.Gauge {
	return []*metrics.Gauge{c.ruuOcc, c.lsqOcc, c.sbOcc}
}

// Done reports whether the run has fully drained.
func (c *Core) Done() bool {
	return c.fetchExhausted() && c.count == 0 && c.storeLive == 0
}

func (c *Core) fetchExhausted() bool {
	if c.cfg.MaxInsts > 0 && c.stats.Dispatched >= c.cfg.MaxInsts {
		return true
	}
	return c.streamEOF && !c.peeked
}

// Run steps the core until completion and returns the statistics.
func (c *Core) Run() (Stats, error) {
	return c.RunContext(context.Background())
}

// ctxCheckInterval is how often RunContext polls its context, in cycles: a
// per-cycle check would cost an interface call in the hottest loop, and a
// few thousand cycles of cancellation latency is far below human-visible.
const ctxCheckInterval = 4096

// RunContext steps the core until completion, cooperatively honoring ctx:
// cancellation (or deadline expiry) aborts the run within ctxCheckInterval
// cycles with the context's error. This is what makes per-cell deadlines in
// sweep runners effective without killing the process.
func (c *Core) RunContext(ctx context.Context) (Stats, error) {
	countdown := uint64(0)
	for !c.Done() {
		if countdown == 0 {
			if err := ctx.Err(); err != nil {
				return c.Stats(), fmt.Errorf("cpu: run canceled at cycle %d (committed %d of %d dispatched): %w",
					c.now, c.stats.Committed, c.stats.Dispatched, err)
			}
			countdown = ctxCheckInterval
		}
		countdown--
		if err := c.Step(); err != nil {
			return c.Stats(), err
		}
		if n := c.idleCycles(); n > 0 {
			c.skipIdle(n)
		}
	}
	return c.Stats(), nil
}

// Step advances the simulation by one cycle.
func (c *Core) Step() error {
	if c.cfg.MaxCycles > 0 && c.now >= c.cfg.MaxCycles {
		return fmt.Errorf("cpu: exceeded %d cycles (committed %d of %d dispatched; RUU %d, head state %d)",
			c.cfg.MaxCycles, c.stats.Committed, c.stats.Dispatched, c.count, c.entries[c.head].state)
	}
	commit0 := c.stats.Committed
	sbStall0 := c.stats.CommitStallStoreBuf
	ruuStall0 := c.stats.DispatchStallRUU
	lsqStall0 := c.stats.DispatchStallLSQ
	c.hier.Advance(c.now)
	c.processEvents()
	c.releaseOrderParked()
	c.commit()
	c.memoryIssue()
	c.issue()
	c.dispatch()
	c.drainCompletions()
	c.accountCycle(commit0, sbStall0, ruuStall0, lsqStall0)
	if c.stats.Committed > commit0 {
		c.lastProgress = c.now
	}
	if c.watchdog != 0 && c.now-c.lastProgress >= c.watchdog {
		return c.hangError()
	}
	if c.verify != nil {
		if err := c.verify.Err(); err != nil {
			return fmt.Errorf("cpu: verify failed at cycle %d: %w", c.now, err)
		}
		if c.broken != nil {
			return fmt.Errorf("cpu: verify failed at cycle %d: %w", c.now, c.broken)
		}
		var sum uint64
		for _, n := range c.stats.StallCycles {
			sum += n
		}
		if sum != c.now+1 {
			return fmt.Errorf("cpu: verify failed at cycle %d: CPI stall buckets sum to %d, want %d",
				c.now, sum, c.now+1)
		}
	}
	c.now++
	return nil
}

// --- events and wakeup ---

func (c *Core) schedule(at uint64, ev event) {
	if at <= c.now {
		at = c.now + 1
	}
	if at-c.now >= wheelSize {
		panic(fmt.Sprintf("cpu: event latency %d exceeds wheel", at-c.now))
	}
	slot := at % wheelSize
	c.wheel[slot] = append(c.wheel[slot], ev)
}

func (c *Core) processEvents() {
	slot := c.now % wheelSize
	evs := c.wheel[slot]
	c.wheel[slot] = evs[:0]
	// The slot's backing array is handed back before its events run. That is
	// safe because schedule only ever targets future slots (at least now+1,
	// less than a wheel turn ahead), so nothing appends here during the walk.
	for _, ev := range evs {
		switch ev.kind {
		case evExec:
			c.complete(ev.idx)
		case evAGU:
			c.addrGenerated(ev.idx)
		case evMem:
			c.complete(ev.idx)
		case evWrite:
			c.storeWritten(int(ev.idx))
		}
	}
}

// complete marks an instruction's result ready and wakes dependents.
func (c *Core) complete(idx int32) {
	e := &c.entries[idx]
	e.state = stDone
	deps := e.deps
	e.deps = e.deps[:0]
	for _, d := range deps {
		c.wake(d>>2, int(d&3))
	}
}

func (c *Core) wake(idx int32, operand int) {
	e := &c.entries[idx]
	if operand == 1 {
		e.src1Ready = true
	} else {
		e.src2Ready = true
	}
	switch {
	case e.dyn.IsStore():
		if operand == 1 && e.state == stWaiting {
			c.pushReady(idx)
		} else if operand == 2 && e.state == stWaitData {
			c.storeDone(idx)
		}
	case e.state == stWaiting && e.src1Ready && e.src2Ready:
		c.pushReady(idx)
	}
}

// readyNode is one ready instruction; it carries the entry's sequence number
// so the ordering compares stay inside the ready list.
type readyNode struct {
	seq uint64
	idx int32
}

// pushReady marks an instruction ready and inserts it into the seq-sorted
// ready list. Only a handful are ready at a time and a newly ready
// instruction is usually the youngest, so the insertion runs from the tail.
func (c *Core) pushReady(idx int32) {
	e := &c.entries[idx]
	e.state = stReady
	n := readyNode{seq: e.dyn.Seq, idx: idx}
	q := append(c.ready, n)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > n.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = n
	c.ready = q
}

// --- stores: address generation, completion, forwarding bookkeeping ---

// addrGenerated handles AGU completion for loads and stores.
func (c *Core) addrGenerated(idx int32) {
	e := &c.entries[idx]
	e.addrDone = true
	if e.dyn.IsStore() {
		c.registerForward(e.dyn.Seq, e.dyn.Addr, e.dyn.Size, idx)
		if e.src2Ready {
			c.storeDone(idx)
		} else {
			e.state = stWaitData
		}
		return
	}
	c.routeLoad(idx)
}

// storeDone marks a store complete (address and data ready): it becomes
// committable and can now satisfy forwarding loads parked on it.
func (c *Core) storeDone(idx int32) {
	e := &c.entries[idx]
	e.state = stDone
	c.wakeChain(&e.waiterHead)
}

func granules(addr uint64, size uint8) (uint64, uint64) {
	return addr >> 3, (addr + uint64(size) - 1) >> 3
}

func (c *Core) registerForward(seq, addr uint64, size uint8, ruu int32) {
	g0, g1 := granules(addr, size)
	ref := fwdRef{seq: seq, addr: addr, size: size, ruu: ruu}
	c.fwd.insert(g0, ref)
	if g1 != g0 {
		c.fwd.insert(g1, ref)
	}
}

func (c *Core) dropForward(seq, addr uint64, size uint8) {
	g0, g1 := granules(addr, size)
	c.fwd.remove(g0, seq)
	if g1 != g0 {
		c.fwd.remove(g1, seq)
	}
}

// commitForward re-tags a store's forwarding refs as committed into the given
// store buffer slot: the data is always ready, and later waiters park on the
// slot rather than the recycled RUU entry.
func (c *Core) commitForward(seq, addr uint64, size uint8, slot int) {
	g0, g1 := granules(addr, size)
	ruu := -int32(slot) - 1
	c.fwd.retag(g0, seq, ruu)
	if g1 != g0 {
		c.fwd.retag(g1, seq, ruu)
	}
}

// wakeChain re-routes every load parked on a store's waiter chain. The head
// is reset before routing and each link is read before its load is routed, so
// a load that re-parks on the same store mid-wake is safe.
func (c *Core) wakeChain(head *int32) {
	idx := *head
	*head = -1
	for idx >= 0 {
		next := c.entries[idx].waiterNext
		c.entries[idx].waiterNext = -1
		c.routeLoad(idx)
		idx = next
	}
}

// --- loads: ordering, forwarding, port scheduling ---

// minUnknownStoreSeq returns the sequence number of the oldest store whose
// address is not yet generated, or MaxUint64 if all are known.
func (c *Core) minUnknownStoreSeq() uint64 {
	for c.soHead < len(c.storeOrder) {
		ref := c.storeOrder[c.soHead]
		e := &c.entries[ref.idx]
		if e.dyn.Seq == ref.seq && !e.addrDone {
			c.compactStoreOrder()
			return ref.seq
		}
		c.soHead++
	}
	c.storeOrder = c.storeOrder[:0]
	c.soHead = 0
	return math.MaxUint64
}

// compactStoreOrder slides the live suffix to the front once the consumed
// prefix dominates, so the backing array is reused instead of regrown (the
// old `storeOrder = storeOrder[1:]` pops leaked capacity forever).
func (c *Core) compactStoreOrder() {
	if c.soHead > 32 && c.soHead*2 >= len(c.storeOrder) {
		n := copy(c.storeOrder, c.storeOrder[c.soHead:])
		c.storeOrder = c.storeOrder[:n]
		c.soHead = 0
	}
}

// routeLoad decides what happens to a load whose address is generated:
// park on ordering, forward, park on a store, or queue for a cache port.
func (c *Core) routeLoad(idx int32) {
	e := &c.entries[idx]
	if c.minUnknownStoreSeq() < e.dyn.Seq {
		e.state = stOrderParked
		c.orderParked = append(c.orderParked, idx)
		c.stats.OrderingStalls++
		return
	}
	switch best, disp := c.tryForward(idx); disp {
	case fwdServiced:
		c.stats.Forwards++
		if c.verify != nil {
			c.verify.ObserveForward(c.now, e.dyn.Seq, best.seq)
		}
		c.schedule(c.now+1, event{kind: evMem, idx: idx})
		e.state = stMemWait
		return
	case fwdBlocked:
		e.state = stFwdParked
		var head *int32
		if best.ruu >= 0 {
			head = &c.entries[best.ruu].waiterHead
		} else {
			head = &c.storeBuf[-best.ruu-1].waiterHead
		}
		e.waiterNext = *head
		*head = idx
		c.stats.ForwardWaits++
		return
	}
	e.state = stMemPending
	c.pending.insert(ports.Request{Seq: e.dyn.Seq, Addr: e.dyn.Addr}, idx)
}

// fwdDisposition is the result of a forwarding lookup.
type fwdDisposition uint8

const (
	// fwdNone: no overlapping older store; the load goes to the cache.
	fwdNone fwdDisposition = iota
	// fwdServiced: a ready covering store services the load at zero latency.
	fwdServiced
	// fwdBlocked: the load must wait on the returned store sequence number
	// (unready data, or a partial overlap that cannot forward).
	fwdBlocked
)

// tryForward finds the youngest older store overlapping the load and decides
// the load's disposition; for fwdServiced and fwdBlocked the returned ref
// identifies that store (seq for reporting, ruu for where to park).
func (c *Core) tryForward(idx int32) (fwdRef, fwdDisposition) {
	e := &c.entries[idx]
	addr, size, seq := e.dyn.Addr, e.dyn.Size, e.dyn.Seq
	g0, g1 := granules(addr, size)
	best := fwdRef{}
	found := false
	scan := func(g uint64) {
		for ni := *c.fwd.bucket(g); ni >= 0; ni = c.fwd.nodes[ni].next {
			n := &c.fwd.nodes[ni]
			if n.g != g {
				continue // bucket shared by another granule
			}
			ref := n.ref
			if ref.seq >= seq {
				continue
			}
			if ref.addr >= addr+uint64(size) || addr >= ref.addr+uint64(ref.size) {
				continue // no overlap
			}
			if !found || ref.seq > best.seq {
				best, found = ref, true
			}
		}
	}
	scan(g0)
	if g1 != g0 {
		scan(g1)
	}
	if !found {
		return best, fwdNone
	}
	covers := best.addr <= addr && best.addr+uint64(best.size) >= addr+uint64(size)
	ready := best.ruu < 0 || c.entries[best.ruu].state == stDone
	if covers && ready {
		return best, fwdServiced
	}
	// Partial overlap, or the matching store's data is not ready: wait on it.
	return best, fwdBlocked
}

// pendingLoads holds the loads waiting for a cache port, ascending seq: req
// and ruu (the RUU index) are parallel and live from head. Grants take the
// oldest loads, so a removal shifts only the short prefix ahead of it and
// advances head; a newly pending load is usually young, so an insertion
// shifts only a short suffix. The oldest requests are contiguous and reach
// the arbiter with one copy.
type pendingLoads struct {
	req  []ports.Request
	ruu  []int32
	head int
}

// Len returns the number of pending loads.
func (p *pendingLoads) Len() int { return len(p.req) - p.head }

// insert adds a load in seq order. When the arrays are full and at least a
// quarter of them is consumed prefix, the live part slides to the front
// instead of the arrays growing.
func (p *pendingLoads) insert(r ports.Request, idx int32) {
	if len(p.req) == cap(p.req) && p.head > 0 && 4*p.head >= len(p.req) {
		n := copy(p.req, p.req[p.head:])
		copy(p.ruu, p.ruu[p.head:])
		p.req, p.ruu, p.head = p.req[:n], p.ruu[:n], 0
	}
	p.req = append(p.req, r)
	p.ruu = append(p.ruu, idx)
	i := len(p.req) - 1
	for ; i > p.head && p.req[i-1].Seq > r.Seq; i-- {
		p.req[i], p.ruu[i] = p.req[i-1], p.ruu[i-1]
	}
	p.req[i], p.ruu[i] = r, idx
}

// find returns the position of the load with sequence number seq, or -1.
func (p *pendingLoads) find(seq uint64) int {
	for i := p.head; i < len(p.req) && p.req[i].Seq <= seq; i++ {
		if p.req[i].Seq == seq {
			return i
		}
	}
	return -1
}

// remove deletes the load at position i.
func (p *pendingLoads) remove(i int) {
	copy(p.req[p.head+1:i+1], p.req[p.head:i])
	copy(p.ruu[p.head+1:i+1], p.ruu[p.head:i])
	p.head++
}

// releaseOrderParked re-routes loads whose ordering barrier has cleared.
//
// The scan is skipped while the barrier sequence is unchanged since the last
// scan: every load parked since then saw the same barrier when it was routed
// (finite barrier values are strictly increasing — stores dispatch in order
// and the MaxUint64 "no barrier" state releases the whole park list), so no
// parked load can have become eligible.
func (c *Core) releaseOrderParked() {
	if len(c.orderParked) == 0 {
		return
	}
	min := c.minUnknownStoreSeq()
	if min == c.orderedMin {
		return
	}
	c.orderedMin = min
	kept := c.orderParked[:0]
	release := c.releaseScratch[:0]
	for _, idx := range c.orderParked {
		if c.entries[idx].dyn.Seq < min {
			release = append(release, idx)
		} else {
			kept = append(kept, idx)
		}
	}
	c.orderParked = kept
	for _, idx := range release {
		c.routeLoad(idx)
	}
	c.releaseScratch = release
}

// --- commit ---

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		idx := int32(c.head)
		e := &c.entries[idx]
		if e.state != stDone {
			return
		}
		if e.dyn.IsStore() {
			if c.sbCount == c.cfg.StoreBufferSize {
				c.stats.CommitStallStoreBuf++
				return
			}
			slot := c.sbHead + c.sbCount
			if slot >= c.cfg.StoreBufferSize {
				slot -= c.cfg.StoreBufferSize
			}
			// Waiters parked on the RUU entry migrate to the slot's chain.
			c.storeBuf[slot] = storeBufEntry{seq: e.dyn.Seq, addr: e.dyn.Addr, size: e.dyn.Size,
				live: true, waiterHead: e.waiterHead}
			e.waiterHead = -1
			c.sbCount++
			c.sbUngranted++
			c.storeLive++
			c.commitForward(e.dyn.Seq, e.dyn.Addr, e.dyn.Size, slot)
			c.stats.Stores++
			c.lsqCount--
		} else if e.dyn.IsLoad() {
			c.stats.Loads++
			c.lsqCount--
		}
		if d := e.dyn.Dst; d != isa.RegNone && c.lastWriter[d] == idx {
			c.lastWriter[d] = -1
		}
		e.state = stEmpty
		e.deps = e.deps[:0]
		if c.head++; c.head == c.cfg.RUUSize {
			c.head = 0
		}
		c.count--
		c.stats.Committed++
	}
}

// --- memory port arbitration ---

func (c *Core) memoryIssue() {
	c.reqBuf = c.reqBuf[:0]
	c.reqSlot = c.reqSlot[:0]
	// Committed stores first: they are the oldest memory operations. The
	// scan visits FIFO order but only ungranted live slots contribute, so it
	// stops once all of them are collected (and never starts when none are).
	if c.sbUngranted > 0 {
		slot, left := c.sbHead, c.sbUngranted
		for i := 0; i < c.sbCount && len(c.reqBuf) < c.cfg.MemScanDepth; i++ {
			sb := &c.storeBuf[slot]
			cur := slot
			if slot++; slot == c.cfg.StoreBufferSize {
				slot = 0
			}
			if !sb.live || sb.granted {
				continue
			}
			c.reqBuf = append(c.reqBuf, ports.Request{Seq: sb.seq, Addr: sb.addr, Store: true})
			c.reqSlot = append(c.reqSlot, int32(cur))
			if left--; left == 0 {
				break
			}
		}
	}
	p := &c.pending
	n := min(p.Len(), c.cfg.MemScanDepth-len(c.reqBuf))
	c.reqBuf = append(c.reqBuf, p.req[p.head:p.head+n]...)
	if len(c.reqBuf) == 0 {
		// Still give stateful arbiters (LBIC store-queue drain) their cycle.
		c.grantBuf = c.arb.Grant(c.now, nil, c.grantBuf[:0])
		if c.verify != nil {
			c.verify.ObserveGrant(c.now, nil, c.grantBuf)
		}
		c.grantHist.Observe(0)
		return
	}
	c.grantBuf = c.arb.Grant(c.now, c.reqBuf, c.grantBuf[:0])
	if c.verify != nil {
		c.verify.ObserveGrant(c.now, c.reqBuf, c.grantBuf)
	}
	c.grantHist.Observe(len(c.grantBuf))
	for _, g := range c.grantBuf {
		r := c.reqBuf[g]
		var token int64
		pos := -1
		if r.Store {
			token = int64(c.cfg.RUUSize) + int64(c.reqSlot[g])
		} else if pos = p.find(r.Seq); pos >= 0 {
			token = int64(p.ruu[pos])
		} else {
			if c.broken == nil {
				c.broken = fmt.Errorf("granted load seq %d is not pending a port", r.Seq)
			}
			continue
		}
		c.stats.PortGrants++
		out := c.hier.Access(c.now, r.Addr, r.Store, token)
		if c.verify != nil {
			c.verify.ObserveAccess(c.now, r.Seq, r.Store, out == cache.Blocked)
		}
		if c.events != nil {
			kind := trace.EvAccess
			if r.Store {
				kind = trace.EvWrite
			}
			c.events.Emit(trace.Event{Cycle: c.now, Kind: kind, Seq: int64(r.Seq),
				Bank: -1, Line: r.Addr >> c.lineShift, Cause: out.String()})
		}
		switch out {
		case cache.Blocked:
			c.stats.PortBlocked++
		default:
			if r.Store {
				sb := &c.storeBuf[c.reqSlot[g]]
				sb.granted = true
				c.sbUngranted--
				c.dropForward(sb.seq, sb.addr, sb.size)
				c.wakeChain(&sb.waiterHead)
			} else {
				p.remove(pos)
				c.entries[token].state = stMemWait
			}
		}
	}
}

// storeWritten retires a written store from the buffer.
func (c *Core) storeWritten(slot int) {
	c.storeBuf[slot].live = false
	c.storeLive--
	c.lastProgress = c.now
	for c.sbCount > 0 {
		head := &c.storeBuf[c.sbHead]
		if head.live {
			break
		}
		if c.sbHead++; c.sbHead == c.cfg.StoreBufferSize {
			c.sbHead = 0
		}
		c.sbCount--
	}
}

// drainCompletions converts hierarchy completions into wheel events.
func (c *Core) drainCompletions() {
	for _, comp := range c.hier.Drain() {
		if comp.Token >= int64(c.cfg.RUUSize) {
			c.schedule(comp.At, event{kind: evWrite, idx: int32(comp.Token - int64(c.cfg.RUUSize))})
		} else {
			c.schedule(comp.At, event{kind: evMem, idx: int32(comp.Token)})
		}
	}
}

// --- issue ---

func (c *Core) fuAvailable(cl isa.Class) bool {
	lat := isa.LatencyOf(cl)
	n := c.cfg.FUCount[cl]
	if lat.Issue <= 1 {
		return c.fuUsed[cl] < n
	}
	busy := c.fuBusy[cl]
	live := busy[:0]
	for _, rel := range busy {
		if rel > c.now {
			live = append(live, rel)
		}
	}
	c.fuBusy[cl] = live
	return len(live) < n
}

func (c *Core) fuOccupy(cl isa.Class) {
	lat := isa.LatencyOf(cl)
	if lat.Issue <= 1 {
		c.fuUsed[cl]++
		return
	}
	c.fuBusy[cl] = append(c.fuBusy[cl], c.now+uint64(lat.Issue))
}

func (c *Core) issue() {
	for cl := range c.fuUsed {
		c.fuUsed[cl] = 0
	}
	// One oldest-first walk: issued instructions leave the list, and those
	// sidelined for want of a unit (and all after the budget runs out) keep
	// their place.
	budget := c.cfg.IssueWidth
	q := c.ready
	kept, i := 0, 0
	for ; i < len(q) && budget > 0; i++ {
		idx := q[i].idx
		e := &c.entries[idx]
		cl := e.dyn.Class
		if !c.fuAvailable(cl) {
			q[kept] = q[i]
			kept++
			continue
		}
		c.fuOccupy(cl)
		budget--
		c.stats.Issued++
		c.stats.IssuedByClass[cl]++
		e.state = stIssued
		if e.dyn.IsMem() {
			c.schedule(c.now+uint64(isa.LatencyOf(cl).Total), event{kind: evAGU, idx: idx})
		} else {
			c.schedule(c.now+uint64(isa.LatencyOf(cl).Total), event{kind: evExec, idx: idx})
		}
	}
	c.ready = q[:kept+copy(q[kept:], q[i:])]
}

// --- dispatch ---

// peek exposes the next undispatched instruction without consuming it. The
// returned pointer aliases the lookahead buffer and is only valid until the
// next peek or dispatch.
func (c *Core) peek() (*trace.Dyn, bool) {
	if c.peeked {
		return &c.peekDyn, true
	}
	if c.streamEOF {
		return nil, false
	}
	if !c.stream.Next(&c.peekDyn) {
		c.streamEOF = true
		return nil, false
	}
	c.peeked = true
	return &c.peekDyn, true
}

func (c *Core) dispatch() {
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.cfg.MaxInsts > 0 && c.stats.Dispatched >= c.cfg.MaxInsts {
			return
		}
		if c.count == c.cfg.RUUSize {
			c.stats.DispatchStallRUU++
			return
		}
		dyn, ok := c.peek()
		if !ok {
			return
		}
		if dyn.IsMem() && c.lsqCount == c.cfg.LSQSize {
			c.stats.DispatchStallLSQ++
			return
		}
		c.peeked = false
		tail := c.head + c.count
		if tail >= c.cfg.RUUSize {
			tail -= c.cfg.RUUSize
		}
		idx := int32(tail)
		c.count++
		c.stats.Dispatched++

		// Assigned field by field: building a whole entry value would copy
		// it twice. Every path below sets state and both ready flags.
		e := &c.entries[idx]
		e.dyn = *dyn
		e.dyn.Seq = c.nextSeq
		e.addrDone = false
		e.deps = e.deps[:0]
		e.waiterHead, e.waiterNext = -1, -1
		c.nextSeq++
		if c.verify != nil && e.dyn.IsMem() {
			c.verify.ObserveDispatch(&e.dyn)
		}
		e.src1Ready = c.wireSource(e.dyn.Src1, idx, 1)
		e.src2Ready = c.wireSource(e.dyn.Src2, idx, 2)

		switch {
		case e.dyn.Class == isa.ClassNone:
			e.state = stDone
		case e.dyn.IsStore():
			c.lsqCount++
			c.storeOrder = append(c.storeOrder, orderRef{seq: e.dyn.Seq, idx: idx})
			if e.src1Ready {
				c.pushReady(idx)
			} else {
				e.state = stWaiting
			}
		case e.dyn.IsLoad():
			c.lsqCount++
			fallthrough
		default:
			if e.src1Ready && e.src2Ready {
				c.pushReady(idx)
			} else {
				e.state = stWaiting
			}
		}
		if d := e.dyn.Dst; d != isa.RegNone {
			c.lastWriter[d] = idx
		}
	}
}

// wireSource links a source operand to its producer, reporting whether the
// operand is already available.
func (c *Core) wireSource(r isa.Reg, idx int32, operand int) bool {
	if r == isa.RegNone {
		return true
	}
	p := c.lastWriter[r]
	if p < 0 {
		return true
	}
	prod := &c.entries[p]
	if prod.state == stDone {
		return true
	}
	prod.deps = append(prod.deps, idx<<2|int32(operand))
	return false
}

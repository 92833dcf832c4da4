package main

import (
	"fmt"

	"lbic"
	"lbic/internal/core"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// newArbiter builds the port arbiter a PortConfig describes, from the
// exported constructors. It mirrors the root package's registry factories;
// the traced run's equality check against lbic.Simulate catches any drift.
func newArbiter(p lbic.PortConfig, lineSize int) (ports.Arbiter, error) {
	switch p.Kind {
	case lbic.Ideal:
		return ports.NewIdeal(p.Width)
	case lbic.Replicated:
		return ports.NewReplicated(p.Width)
	case lbic.Banked:
		return ports.NewBankedSelector(p.Banks, lineSize, p.Selector)
	case lbic.LBIC:
		policy := core.PolicyLeading
		if p.Greedy {
			policy = core.PolicyGreedy
		}
		return core.New(core.Config{Banks: p.Banks, LinePorts: p.LinePorts, LineSize: lineSize,
			StoreQueueDepth: p.StoreQueueDepth, Policy: policy})
	case lbic.VirtualMultiport:
		return ports.NewVirtual(p.Width)
	case lbic.BankedStoreQueue:
		return ports.NewBankedSQ(p.Banks, lineSize, p.StoreQueueDepth)
	case lbic.MultiPortedBanks:
		return ports.NewMultiPortedBanks(p.Banks, p.Width, lineSize)
	case lbic.Coded:
		return ports.NewCoded(ports.CodedConfig{Banks: p.Banks, ParityBanks: p.ParityBanks, LineSize: lineSize,
			UpdateQueueDepth: p.StoreQueueDepth, LinePorts: p.LinePorts, Speculative: p.Speculative})
	}
	return nil, fmt.Errorf("no constructor for port %s", p.Name())
}

// replayPorts is one representative per registered wire organization; the
// Grant replay times each over the same captured ready lists.
func replayPorts() []lbic.PortConfig {
	var out []lbic.PortConfig
	for _, o := range lbic.PortOrganizations() {
		if !o.Wire {
			continue
		}
		switch o.Kind {
		case lbic.Ideal, lbic.Replicated, lbic.VirtualMultiport:
			out = append(out, lbic.PortConfig{Kind: o.Kind, Width: 4})
		case lbic.Banked, lbic.BankedStoreQueue:
			out = append(out, lbic.PortConfig{Kind: o.Kind, Banks: 4})
		case lbic.LBIC:
			out = append(out, lbic.LBICPort(4, 2))
		case lbic.MultiPortedBanks:
			out = append(out, lbic.MultiPortedBanksPort(2, 2))
		case lbic.Coded:
			out = append(out, lbic.CodedPort(4, 1))
		}
	}
	return out
}

// conflicts is the run's bank-conflict count as lbic.Result.PortConflicts
// reports it: the per-bank conflict total, 0 for organizations without banks.
func conflicts(arb ports.Arbiter) uint64 {
	bo, ok := arb.(ports.BankObserver)
	if !ok {
		return 0
	}
	var n uint64
	for _, c := range bo.BankConflicts() {
		n += c
	}
	return n
}

// readyCapture holds the ready lists a traced run offered its arbiters, in
// order, for the Grant replay, and the grant count of each call for the
// histogram replay.
type readyCapture struct {
	reqs   []ports.Request
	ends   []int // reqs[ends[i-1]:ends[i]] is call i's ready list
	grants []int
}

// maxCapturedReqs bounds the capture's memory.
const maxCapturedReqs = 1 << 21

func (c *readyCapture) add(ready []ports.Request, grants int) {
	if len(c.reqs)+len(ready) > maxCapturedReqs {
		return
	}
	c.reqs = append(c.reqs, ready...)
	c.ends = append(c.ends, len(c.reqs))
	c.grants = append(c.grants, grants)
}

// timedArbiter wraps an arbiter, timing each Grant call and counting the
// requests offered and granted. It forwards the optional interfaces the
// core and the result collection look for, so fast-forward, the watchdog's
// diagnostics and event recording behave as with the bare arbiter.
type timedArbiter struct {
	ports.Arbiter
	timer           callTimer
	offered, grants int64
	capture         *readyCapture
}

func (t *timedArbiter) Grant(now uint64, ready []ports.Request, dst []int) []int {
	t0 := nanotime()
	dst = t.Arbiter.Grant(now, ready, dst)
	t.timer.stop(t0)
	t.offered += int64(len(ready))
	t.grants += int64(len(dst))
	if t.capture != nil {
		t.capture.add(ready, len(dst))
	}
	return dst
}

// Quiescent forwards ports.Quiescer. An arbiter without it never lets the
// core fast-forward, and neither does its wrapper, which always says no.
func (t *timedArbiter) Quiescent() bool {
	q, ok := t.Arbiter.(ports.Quiescer)
	return ok && q.Quiescent()
}

func (t *timedArbiter) BankAccesses() []uint64 {
	if bo, ok := t.Arbiter.(ports.BankObserver); ok {
		return bo.BankAccesses()
	}
	return nil
}

func (t *timedArbiter) BankConflicts() []uint64 {
	if bo, ok := t.Arbiter.(ports.BankObserver); ok {
		return bo.BankConflicts()
	}
	return nil
}

func (t *timedArbiter) DumpState() string {
	if d, ok := t.Arbiter.(ports.StateDumper); ok {
		return d.DumpState()
	}
	return ""
}

func (t *timedArbiter) SetEventSink(s trace.EventSink) {
	if er, ok := t.Arbiter.(ports.EventRecorder); ok {
		er.SetEventSink(s)
	}
}

// timedStream wraps an instruction stream, timing each Next call.
type timedStream struct {
	s     trace.Stream
	timer callTimer
}

func (t *timedStream) Next(d *trace.Dyn) bool {
	t0 := nanotime()
	ok := t.s.Next(d)
	t.timer.stop(t0)
	return ok
}

// callTimer accumulates the time of timed calls net of the cost of reading
// the clock, which it samples every calSample calls in the same loop as the
// calls it times.
type callTimer struct {
	calls, ns   int64
	calN, calNs int64
}

const calSample = 16

// stop ends the call timed from t0.
func (c *callTimer) stop(t0 int64) {
	c.ns += nanotime() - t0
	c.calls++
	if c.calls%calSample == 0 {
		a := nanotime()
		c.calNs += nanotime() - a
		c.calN++
	}
}

func (c *callTimer) add(o callTimer) {
	c.calls += o.calls
	c.ns += o.ns
	c.calN += o.calN
	c.calNs += o.calNs
}

// net is the timed calls' total ns without the clock reads.
func (c *callTimer) net() float64 {
	if c.calN == 0 {
		return float64(c.ns)
	}
	return float64(c.ns) - float64(c.calls)*float64(c.calNs)/float64(c.calN)
}

// perCall is net per call.
func (c *callTimer) perCall() float64 { return c.net() / float64(max(c.calls, 1)) }

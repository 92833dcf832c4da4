package cpu

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lbic/internal/cache"
	"lbic/internal/isa"
	"lbic/internal/ports"
	"lbic/internal/trace"
)

// checkPending compares the pending-load array with a sorted reference.
func checkPending(t *testing.T, step int, p *pendingLoads, ref []ports.Request) {
	t.Helper()
	if p.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, want %d", step, p.Len(), len(ref))
	}
	if len(p.ruu) != len(p.req) {
		t.Fatalf("step %d: %d RUU indices for %d requests", step, len(p.ruu), len(p.req))
	}
	for i, r := range ref {
		j := p.head + i
		if p.req[j] != r || p.ruu[j] != int32(r.Addr) {
			t.Fatalf("step %d: position %d holds %+v (ruu %d), want %+v (ruu %d)",
				step, i, p.req[j], p.ruu[j], r, r.Addr)
		}
	}
}

// TestPendingLoadsProperty drives the pending-load array with random insert
// and remove sequences against a sorted reference: fills to a full 512-entry
// LSQ, grants that take the oldest loads (the head slide), removals anywhere,
// and the compaction that slides the live part back to the front.
func TestPendingLoadsProperty(t *testing.T) {
	const lsq = 512
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p pendingLoads
		var ref []ports.Request
		live := map[uint64]bool{}
		compactions, maxLen := 0, 0
		insert := func() {
			var seq uint64
			for {
				seq = uint64(rng.Intn(1 << 16))
				if !live[seq] {
					break
				}
			}
			if rng.Intn(4) > 0 && len(ref) > 0 {
				// Usually younger than every pending load, as in the core.
				seq = ref[len(ref)-1].Seq + 1 + uint64(rng.Intn(8))
			}
			live[seq] = true
			// Addr carries the RUU index so the parallel arrays can be checked.
			r := ports.Request{Seq: seq, Addr: uint64(rng.Intn(1024))}
			head := p.head
			p.insert(r, int32(r.Addr))
			if head > 0 && p.head == 0 {
				compactions++
			}
			i, _ := slices.BinarySearchFunc(ref, seq, func(a ports.Request, s uint64) int {
				return int(int64(a.Seq) - int64(s))
			})
			ref = slices.Insert(ref, i, r)
			maxLen = max(maxLen, len(p.req))
		}
		remove := func(i int) {
			r := ref[i]
			pos := p.find(r.Seq)
			if pos != p.head+i {
				t.Fatalf("seed %d: find(%d) = %d, want %d", seed, r.Seq, pos, p.head+i)
			}
			p.remove(pos)
			ref = slices.Delete(ref, i, i+1)
			delete(live, r.Seq)
		}
		for step := 0; step < 20000; step++ {
			switch {
			case len(ref) < lsq && (len(ref) == 0 || rng.Intn(2) == 0):
				insert()
			case rng.Intn(4) > 0:
				// A grant: one of the oldest loads the arbiter sees.
				remove(rng.Intn(min(len(ref), 64)))
			default:
				remove(rng.Intn(len(ref)))
			}
			if step%5000 == 2500 {
				// Fill to a full LSQ, then drain it oldest first.
				for len(ref) < lsq {
					insert()
				}
				checkPending(t, step, &p, ref)
				for len(ref) > 0 {
					remove(0)
				}
			}
			checkPending(t, step, &p, ref)
			if p.find(1<<20) != -1 {
				t.Fatalf("seed %d: find of an absent seq succeeded", seed)
			}
		}
		if compactions == 0 {
			t.Errorf("seed %d: the compaction path never ran", seed)
		}
		if maxLen > 2*lsq+1 {
			t.Errorf("seed %d: arrays grew to %d entries for at most %d live", seed, maxLen, lsq)
		}
	}
}

// TestSidelinedReadyIssueInSeqOrder gives the core a single unpipelined
// divider: ready divides wait their turn in the ready list while younger
// instructions issue past them, and the divides still issue oldest first.
func TestSidelinedReadyIssueInSeqOrder(t *testing.T) {
	var dyns []trace.Dyn
	for i := 0; i < 24; i++ {
		// Independent divides (sources never written) between adds.
		dyns = append(dyns,
			trace.Dyn{Op: isa.Div, Class: isa.ClassIntDiv, Dst: r(1 + i%8), Src1: r(20), Src2: r(21)},
			alu(r(10+i%8), r(22), r(23)))
	}
	hier, err := cache.NewHierarchy(cache.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FUCount[isa.ClassIntDiv] = 1
	cfg.MaxCycles = 10_000
	c, err := New(trace.NewSliceStream(dyns), hier, ideal(t, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	issueCycle := map[uint64]uint64{}
	for !c.Done() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if !slices.IsSortedFunc(c.ready, func(a, b readyNode) int { return int(int64(a.seq) - int64(b.seq)) }) {
			t.Fatalf("cycle %d: ready list out of seq order", c.now)
		}
		for i := 0; i < c.count; i++ {
			e := &c.entries[(c.head+i)%len(c.entries)]
			if _, seen := issueCycle[e.dyn.Seq]; !seen && e.state != stReady && e.state != stWaiting {
				issueCycle[e.dyn.Seq] = c.now - 1
			}
		}
	}
	s := c.Stats()
	if s.IssuedByClass[isa.ClassIntDiv] != 24 || s.IssuedByClass[isa.ClassIntALU] != 24 {
		t.Fatalf("issued %d divides and %d adds, want 24 each",
			s.IssuedByClass[isa.ClassIntDiv], s.IssuedByClass[isa.ClassIntALU])
	}
	// Divides are the even sequence numbers; each issues one divider
	// occupancy (12 cycles) after the one before it.
	lat := uint64(isa.LatencyOf(isa.ClassIntDiv).Issue)
	for seq := uint64(2); seq < 48; seq += 2 {
		if got, prev := issueCycle[seq], issueCycle[seq-2]; got != prev+lat {
			t.Errorf("divide seq %d issued at cycle %d, %d after seq %d; want %d after", seq, got, got-prev, seq-2, lat)
		}
	}
	// The adds are not held behind the sidelined divides.
	for seq := uint64(1); seq < 48; seq += 2 {
		if issueCycle[seq] > issueCycle[1] {
			t.Errorf("add seq %d issued at cycle %d, after the first add's %d", seq, issueCycle[seq], issueCycle[1])
		}
	}
	if c.ReadyLen() != 0 {
		t.Errorf("ready list holds %d instructions after the run", c.ReadyLen())
	}
}

// nopVerifier attaches verification with no checks of its own.
type nopVerifier struct{}

func (nopVerifier) ObserveDispatch(*trace.Dyn)                  {}
func (nopVerifier) ObserveGrant(uint64, []ports.Request, []int) {}
func (nopVerifier) ObserveAccess(uint64, uint64, bool, bool)    {}
func (nopVerifier) ObserveForward(uint64, uint64, uint64)       {}
func (nopVerifier) Err() error                                  { return nil }

// doubleGrant grants its first load twice: the second grant names a load
// that is no longer pending.
type doubleGrant struct{ ports.Arbiter }

func (d doubleGrant) Grant(now uint64, ready []ports.Request, out []int) []int {
	for i, r := range ready {
		if !r.Store {
			return append(out, i, i)
		}
	}
	return out
}

// TestGrantOfMissingLoadFailsVerify checks that a grant of a load the core
// does not hold pending is an invariant violation Step reports when a
// Verifier is attached, and is skipped without one.
func TestGrantOfMissingLoadFailsVerify(t *testing.T) {
	dyns := []trace.Dyn{load(r(1), r(20), 0x100), load(r(2), r(20), 0x200)}
	for _, verify := range []bool{true, false} {
		hier, err := cache.NewHierarchy(cache.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxCycles = 10_000
		c, err := New(trace.NewSliceStream(dyns), hier, doubleGrant{ideal(t, 4)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if verify {
			c.SetVerifier(nopVerifier{})
		}
		_, err = c.Run()
		switch {
		case verify && (err == nil || !strings.Contains(err.Error(), "granted load seq 0 is not pending")):
			t.Errorf("with a verifier: Run error = %v, want the missing-load violation", err)
		case !verify && err != nil:
			t.Errorf("without a verifier: Run error = %v, want a clean run", err)
		}
	}
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"lbic"
	"lbic/internal/experiments"
)

// paperInsts is paper-sweep's per-cell instruction budget, half the
// ROADMAP's `lbictables -all -insts 100000` anchor so that a run holds a
// dozen sweeps to take the median of.
const paperInsts = 50_000

// paperHitReps is how many times a round regenerates Table 3 from the
// finished sweep's result memo; each regeneration is one hit operation.
const paperHitReps = 30

// traceCacheBytes is lbictables' default trace-cache budget.
const traceCacheBytes = 256 << 20

// tableWriter is a rendered experiment table.
type tableWriter interface{ JSON(w io.Writer) error }

// paperTable is one table of `lbictables -all`, in its order.
type paperTable struct {
	name string
	gen  func(sw *experiments.Sweep) (tableWriter, error)
}

// paperSweep runs the paper's evaluation as `lbictables -all` does by
// default — Table 2, Table 3, Figure 3, Table 4, the coded-vs-line-buffer
// table and the two workload matrices — through one experiments.Sweep per
// round with the default trace cache and lane setting, at Jobs = nproc.
// Its inputs are fixed, so the seed does not affect it.
type paperSweep struct {
	tables []paperTable
	// table2 is the first round's Table 2, printed against the paper's
	// values after the run.
	table2 []experiments.Table2Row
	// ref is the first round's digest of every table; later rounds must
	// reproduce it.
	ref    string
	refT3  string
	rounds int
}

func (p *paperSweep) setup(uint64) error {
	// The sweep builds its programs itself, inside the timed region, as
	// lbictables does; setup builds them once to check they exist and to
	// finish any lazy package initialization before timing.
	for _, n := range lbic.BenchmarkNames() {
		if _, err := lbic.BuildBenchmark(n); err != nil {
			return err
		}
	}
	p.tables = []paperTable{
		{"table2", func(sw *experiments.Sweep) (tableWriter, error) {
			rows, err := experiments.Table2(sw)
			if err != nil {
				return nil, err
			}
			if p.table2 == nil {
				p.table2 = rows
			}
			return experiments.Table2Table(rows), nil
		}},
		{"table3", table3},
		{"figure3", func(sw *experiments.Sweep) (tableWriter, error) {
			rows, err := experiments.Figure3(sw)
			if err != nil {
				return nil, err
			}
			return experiments.Figure3Table(rows), nil
		}},
		{"table4", func(sw *experiments.Sweep) (tableWriter, error) {
			d, err := experiments.Table4(sw)
			if err != nil {
				return nil, err
			}
			return experiments.Table4Table(d), nil
		}},
		{"coded", func(sw *experiments.Sweep) (tableWriter, error) { return experiments.CodedTable(sw) }},
		{"workload-ipc", func(sw *experiments.Sweep) (tableWriter, error) { return experiments.WorkloadMatrix(sw) }},
		{"workload-conflicts", func(sw *experiments.Sweep) (tableWriter, error) { return experiments.WorkloadConflicts(sw) }},
	}
	return nil
}

func table3(sw *experiments.Sweep) (tableWriter, error) {
	d, err := experiments.Table3(sw)
	if err != nil {
		return nil, err
	}
	return experiments.Table3Table(d), nil
}

// newPaperSweep configures a sweep as `lbictables -all` does by default.
func newPaperSweep(insts uint64) *experiments.Sweep {
	sw := experiments.NewSweep(insts)
	sw.Trace = lbic.NewTraceCache(traceCacheBytes)
	sw.Jobs = inFlight()
	sw.Lanes = -1
	sw.Retries = 1
	return sw
}

func (p *paperSweep) beforeRound() error { return nil }

// memoKey maps a simulation cell key to the simulated point it reads: the
// IPC and conflict-rate views of one point share a single simulation.
func memoKey(key string) (string, bool) {
	if !strings.HasPrefix(key, "sim/") {
		return "", false
	}
	return "sim/" + strings.TrimPrefix(strings.TrimPrefix(key, "sim/"), "conf/"), true
}

func (p *paperSweep) round(s *roundSample) error {
	sw := newPaperSweep(paperInsts)
	points := map[string]bool{}
	sw.OnCell = func(key string, err error) {
		s.ops++
		if k, ok := memoKey(key); ok && err == nil {
			points[k] = true
		}
	}
	var (
		sum     = sha256.New()
		missLat []time.Duration
		start   = time.Now()
	)
	for _, t := range p.tables {
		t0 := time.Now()
		tab, err := t.gen(sw)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		if err := tab.JSON(sum); err != nil {
			return err
		}
		s.all = append(s.all, d)
		s.tail = max(s.tail, d)
		if t.name == "workload-conflicts" {
			// Every cell of the conflict view is the IPC view's simulated
			// point: the whole table is answered from the result memo.
			s.hit = append(s.hit, d)
		} else {
			missLat = append(missLat, d)
		}
	}
	// The whole sweep is the workload's job.
	s.jobs = append(s.jobs, time.Since(start))
	// One miss sample per round, the median over the simulating tables:
	// pooling tables of different sizes across rounds would put the median
	// on the boundary between two of them.
	s.miss = append(s.miss, medianDur(missLat))
	s.insts = uint64(len(points)) * paperInsts
	s.attempted += s.ops
	for _, f := range sw.Failures() {
		s.fail("paper-sweep ERR cell %s: %v", f.Key, f.Err)
	}
	got := hex.EncodeToString(sum.Sum(nil))
	if p.ref == "" {
		p.ref = got
	} else if got != p.ref {
		s.fail("paper-sweep round %d tables digest %s, first round %s", p.rounds, got, p.ref)
	}

	sw.OnCell = nil
	// Collect the sweep's garbage first, so the hits time the memo reads
	// and not whichever collection the sweep left running.
	runtime.GC()
	for i := 0; i < paperHitReps; i++ {
		t0 := time.Now()
		tab, err := table3(sw)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("table3 from memo: %w", err)
		}
		s.hit = append(s.hit, d)
		s.attempted++
		var buf bytes.Buffer
		if err := tab.JSON(&buf); err != nil {
			return err
		}
		h := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(h[:]); p.refT3 == "" {
			p.refT3 = got
		} else if got != p.refT3 {
			s.fail("paper-sweep Table 3 from memo differs from its first generation")
		}
	}
	p.rounds++
	return nil
}

func (p *paperSweep) check() (tally, error) {
	printTable2Error(p.table2)
	return tally{}, nil
}

// printTable2Error prints the measured Table 2 characteristics against the
// paper's values, with the mean absolute error of each column.
func printTable2Error(rows []experiments.Table2Row) {
	var eMem, eSL, eMiss float64
	fmt.Println("table2 vs paper (measured/paper): program mem% store:load l1-miss")
	for _, r := range rows {
		fmt.Printf("  %-9s %5.1f/%5.1f %5.2f/%5.2f %.4f/%.4f\n", r.Name,
			r.Stats.MemPct, r.PaperMemPct, r.Stats.StoreToLoad, r.PaperStoreToLoad,
			r.Stats.MissRate, r.PaperMissRate)
		eMem += math.Abs(r.Stats.MemPct - r.PaperMemPct)
		eSL += math.Abs(r.Stats.StoreToLoad - r.PaperStoreToLoad)
		eMiss += math.Abs(r.Stats.MissRate - r.PaperMissRate)
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Printf("table2 mean abs error: mem%%=%.2f points, store:load=%.3f, l1-miss=%.4f\n",
			eMem/n, eSL/n, eMiss/n)
	}
}

func (p *paperSweep) digest() string { return p.ref }

func (p *paperSweep) close() {}

func (p *paperSweep) traceInsts() uint64 { return paperInsts }

// cells are the traced run's cells: every kernel under the paper's port
// families, replayed as the sweep replays them, and each generator at its
// catalog defaults on two banked organizations, as the workload matrices
// run them.
func (p *paperSweep) cells() ([]cellSpec, error) {
	var out []cellSpec
	for _, n := range lbic.BenchmarkNames() {
		prog, err := lbic.BuildBenchmark(n)
		if err != nil {
			return nil, err
		}
		for _, pc := range []lbic.PortConfig{lbic.IdealPort(4), lbic.ReplicatedPort(4), lbic.BankedPort(4),
			lbic.LBICPort(4, 2), lbic.CodedPort(4, 1)} {
			out = append(out, cellSpec{name: n, port: pc, insts: paperInsts, prog: prog, replay: true})
		}
	}
	for _, kind := range lbic.GeneratorKinds() {
		g := lbic.GenParams{Kind: kind}
		rp, err := g.Resolve()
		if err != nil {
			return nil, err
		}
		for _, pc := range []lbic.PortConfig{lbic.BankedPort(4), lbic.LBICPort(4, 2)} {
			out = append(out, cellSpec{name: rp.Key(), port: pc, insts: paperInsts, gen: &g})
		}
	}
	return out, nil
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"lbic"
)

// coldCell is one cell of the cold-cells population.
type coldCell struct {
	name   string
	port   lbic.PortConfig
	insts  uint64
	prog   *lbic.Program // access-pattern program; nil for generator cells
	gen    lbic.GenParams
	verify bool
}

// coldPorts covers every registered wire organization, including the
// variants outside the default experiment axis.
func coldPorts() []lbic.PortConfig {
	xor := lbic.BankedPort(8)
	xor.Selector = lbic.XorFold
	lb := lbic.CodedPort(4, 2)
	lb.LinePorts = 2
	spec := lbic.CodedPort(4, 1)
	spec.Speculative = true
	return []lbic.PortConfig{
		lbic.IdealPort(4), lbic.ReplicatedPort(4), lbic.BankedPort(4), xor, lbic.LBICPort(4, 2),
		lbic.VirtualPort(4), lbic.BankedSQPort(4), lbic.MultiPortedBanksPort(2, 2), lb, spec,
	}
}

// patternPorts are the organizations every access-pattern program runs
// under: a plain banked cache, where bank-stride, same-line bursts and store
// bursts conflict most, and the LBIC; the third runs under the oracle.
var patternPorts = []lbic.PortConfig{lbic.BankedPort(4), lbic.LBICPort(4, 2)}

var patternVerifyPort = lbic.CodedPort(4, 1)

// Cold-cells shape. The seed draws each generator's parameters and which
// organization it runs on; the strata keep every round the same size:
// every generator kind gets genVariants cells, one per footprint in
// genFootprints, and every organization in coldPorts runs the same number
// of generator cells.
const (
	genVariants  = 4
	coldInsts    = 20_000
	patternInsts = 20_000
)

var genFootprints = []int64{16 << 10, 128 << 10, 1 << 20, 4 << 20}

// coldCells runs cells that share nothing: seeded generator streams of all
// five kinds and the access-pattern programs, each on a fresh core with
// empty caches, no trace cache, no lanes and no memo. Every access-pattern
// program also runs once under the Verify oracle.
type coldCells struct {
	pop []coldCell
	// ref holds the first round's report hash per cell; later rounds must
	// reproduce it.
	ref []string
}

func (c *coldCells) setup(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0xC01DCE11))
	kinds := lbic.GeneratorKinds()
	ports := coldPorts()
	var portSlots []lbic.PortConfig
	for len(portSlots) < len(kinds)*genVariants {
		for _, i := range rng.Perm(len(ports)) {
			portSlots = append(portSlots, ports[i])
		}
	}

	c.pop = nil
	for _, kind := range kinds {
		for _, fi := range rng.Perm(len(genFootprints)) {
			g := drawGen(rng, kind, genFootprints[fi])
			rp, err := g.Resolve()
			if err != nil {
				return fmt.Errorf("generator %s: %w", kind, err)
			}
			c.pop = append(c.pop, coldCell{name: rp.Key(), gen: g, port: portSlots[len(c.pop)], insts: coldInsts})
		}
	}
	for _, pat := range lbic.Patterns() {
		prog, err := lbic.BuildPattern(pat.Name)
		if err != nil {
			return err
		}
		for _, port := range patternPorts {
			c.pop = append(c.pop, coldCell{name: "pat:" + pat.Name, prog: prog, port: port, insts: patternInsts})
		}
		c.pop = append(c.pop, coldCell{name: "pat:" + pat.Name, prog: prog, port: patternVerifyPort,
			insts: patternInsts, verify: true})
	}
	c.ref = nil
	return nil
}

// drawGen draws one generator parameter set inside the documented ranges,
// at the given working-set size.
func drawGen(rng *rand.Rand, kind string, footprint int64) lbic.GenParams {
	g := lbic.GenParams{Kind: kind, Seed: 1 + rng.Uint64N(1<<32), MemPct: 20 + rng.IntN(41)}
	switch kind {
	case "zipf":
		g.RecordBytes = 8 * (1 + rng.IntN(16))
		g.Keys = int(footprint) / g.RecordBytes
		g.SkewPct = rng.IntN(100)
		g.UpdatePct = rng.IntN(51)
	case "hashjoin":
		g.Footprint = footprint
		g.Buckets = 1 << (6 + rng.IntN(10))
		g.Chain = 1 + rng.IntN(8)
	case "chase":
		g.Footprint = footprint
		g.Lanes = 1 + rng.IntN(8)
	case "gcsweep":
		g.Footprint = footprint
		g.Stride = 8 * int64(1+rng.IntN(64))
		g.MarkPct = rng.IntN(101)
	case "multiprog":
		g.Footprint = footprint
		g.Contexts = 1 + rng.IntN(8)
		g.Quantum = 1 + rng.IntN(4096)
	}
	return g
}

func (c *coldCells) config(cell coldCell) lbic.Config {
	cfg := lbic.DefaultConfig()
	cfg.Port = cell.port
	cfg.MaxInsts = cell.insts
	cfg.Verify = cell.verify
	return cfg
}

// simulate runs one cell on its own fresh simulator.
func (c *coldCells) simulate(ctx context.Context, cell coldCell) (lbic.Result, error) {
	if cell.prog != nil {
		return lbic.SimulateContext(ctx, cell.prog, c.config(cell))
	}
	return lbic.SimulateGenerator(ctx, cell.gen, c.config(cell))
}

func (c *coldCells) beforeRound() error { return nil }

// coldOut is one cell's outcome in a round.
type coldOut struct {
	lat    time.Duration
	insts  uint64
	cycles uint64
	report []byte
	err    error
}

func (c *coldCells) round(s *roundSample) error {
	start := time.Now()
	outs := make([]coldOut, len(c.pop))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < inFlight(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				outs[i] = c.runCell(c.pop[i])
			}
		}()
	}
	for i := range c.pop {
		work <- i
	}
	close(work)
	wg.Wait()
	// One pass over the whole population is the workload's job.
	s.jobs = append(s.jobs, time.Since(start))
	// Then every cell is asked for again and answered from its stored
	// report (the hit), one at a time after a collection, so the re-reads
	// time the report decoding rather than the simulations beside them.
	runtime.GC()

	first := c.ref == nil
	for i, o := range outs {
		cell := c.pop[i]
		s.ops++
		s.attempted += 2 // the cell and the re-read of its report
		if o.err != nil {
			s.fail("cold-cells %s on %s: %v", cell.name, cell.port.Key(), o.err)
			continue
		}
		s.insts += o.insts
		s.miss = append(s.miss, o.lat)
		s.all = append(s.all, o.lat)
		t0 := time.Now()
		rep, err := lbic.ReadReport(bytes.NewReader(o.report))
		s.hit = append(s.hit, time.Since(t0))
		if err != nil || rep.Cycles != o.cycles {
			s.fail("cold-cells %s on %s: re-read report does not match the run (%v)", cell.name, cell.port.Key(), err)
		}
		h := sha256.Sum256(o.report)
		sum := hex.EncodeToString(h[:])
		if first {
			c.ref = append(c.ref, sum)
		} else if sum != c.ref[i] {
			s.fail("cold-cells %s on %s: report differs from the first round", cell.name, cell.port.Key())
		}
	}
	if first && len(c.ref) != len(c.pop) {
		return fmt.Errorf("cold-cells: first round had failed cells")
	}
	return nil
}

// runCell simulates one cell and encodes its run report: the miss.
func (c *coldCells) runCell(cell coldCell) coldOut {
	t0 := time.Now()
	res, err := c.simulate(context.Background(), cell)
	if err != nil {
		return coldOut{err: err}
	}
	if cell.verify && res.Verify == nil {
		return coldOut{err: fmt.Errorf("verified cell carries no oracle summary")}
	}
	var buf bytes.Buffer
	if err := lbic.NewReport(res).WriteJSON(&buf); err != nil {
		return coldOut{err: err}
	}
	return coldOut{lat: time.Since(t0), insts: res.Insts, cycles: res.Cycles, report: buf.Bytes()}
}

func (c *coldCells) check() (tally, error) { return tally{}, nil }

func (c *coldCells) digest() string {
	h := sha256.New()
	for _, s := range c.ref {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (c *coldCells) close() {}

func (c *coldCells) traceInsts() uint64 { return 10_000 }

// cells are the traced run's cells: the whole population, on live streams.
func (c *coldCells) cells() ([]cellSpec, error) {
	out := make([]cellSpec, 0, len(c.pop))
	for _, cell := range c.pop {
		spec := cellSpec{name: cell.name, port: cell.port, insts: cell.insts, prog: cell.prog}
		if cell.prog == nil {
			g := cell.gen
			spec.gen = &g
		}
		out = append(out, spec)
	}
	return out, nil
}

package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"lbic"
	"lbic/internal/cellstore"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// Sweep carries the execution policy for a set of experiment runs: the
// instruction budget, parallelism, per-cell timeout and retry policy, the
// cell store, and graceful-shutdown plumbing. Every table and figure
// generator takes one, so a single panicking port design, hung pipeline, or
// ^C costs individual cells (rendered as ERR) rather than the whole
// evaluation. The zero value of every field is the conservative default:
// serial, no timeout, no retries, fail-fast, no store.
type Sweep struct {
	// Insts is the per-run instruction budget.
	Insts uint64
	// Ctx cancels the whole sweep (nil = background).
	Ctx context.Context
	// Jobs bounds concurrently running cells (0 or 1 = serial).
	Jobs int
	// Timeout bounds each cell attempt (0 = none).
	Timeout time.Duration
	// Retries re-attempts failed (non-timeout) cells.
	Retries int
	// KeepGoing renders tables with ERR cells instead of stopping at the
	// first failure.
	KeepGoing bool
	// Store, when non-nil, serves cells finished by an earlier run and
	// records each new success, under cellSchema.
	Store *cellstore.Store
	// Trace, when non-nil, records each program's dynamic trace once and
	// replays it for every cell at the same instruction budget — simulation
	// cells, Table 2 characterization, and Figure 3 reference-stream
	// analysis all share one recording. Results are bit-identical with and
	// without it (cell keys deliberately ignore it), so stored cells stay
	// valid either way.
	Trace *lbic.TraceCache
	// Spans, when non-nil, records every cell of this sweep as spans on the
	// trace (cell attempts, retries, deadline slack from the runner; cycles
	// and trace-cache attribution from the simulator). Export the tree with
	// lbic.WriteChromeTrace or lbic.WriteTraceJSONL.
	Spans *lbic.RequestTrace
	// Stop requests graceful shutdown: in-flight cells finish, the rest are
	// skipped.
	Stop <-chan struct{}
	// OnCell observes every settled cell (progress reporting).
	OnCell func(key string, err error)
	// InjectPanic and InjectHang are key substrings marking cells to
	// sabotage — a panic or a never-returning hang — for exercising the
	// fault-isolation machinery end to end.
	InjectPanic []string
	InjectHang  []string
	// Lanes is ignored: every cell runs on the sweep's one execution path.
	//
	// Deprecated: lane batching was removed; the field remains only so
	// existing callers still compile.
	Lanes int

	log   *failureLog
	progs *progCache
	specs *specRegistry
	memo  *resultMemo
	// local is the sweep-private trace cache serving cells when Trace is
	// nil: without it, every cell of the same benchmark re-ran the emulator
	// to regenerate an identical stream once per cell.
	local *lbic.TraceCache
}

// localTraceBudget bounds the sweep-private trace cache. Matches the
// lbictables default budget; eviction only costs a re-recording.
const localTraceBudget = 256 << 20

// NewSweep returns a sweep with the given budget and default policy.
func NewSweep(insts uint64) *Sweep {
	return &Sweep{
		Insts: insts,
		log:   &failureLog{},
		progs: &progCache{m: map[string]*lbic.Program{}},
		specs: &specRegistry{m: map[string]simSpec{}},
		memo:  &resultMemo{m: map[string]*lbic.Result{}},
		local: lbic.NewTraceCache(localTraceBudget),
	}
}

// traceCache returns the cache cells stream from: the caller-provided one,
// or the sweep-private cache, so a sweep without an explicit Trace still
// records each (program, budget) stream once and replays it for every cell.
func (sw *Sweep) traceCache() *lbic.TraceCache {
	if sw.Trace != nil {
		return sw.Trace
	}
	return sw.local
}

// progCache builds each program once per sweep. Programs are immutable once
// built, so cells share instances — which both skips redundant synthesis and
// lets the trace cache memoize program fingerprints by identity.
type progCache struct {
	mu sync.Mutex
	m  map[string]*lbic.Program
}

func (pc *progCache) get(key string, build func() (*lbic.Program, error)) (*lbic.Program, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p, ok := pc.m[key]; ok {
		return p, nil
	}
	p, err := build()
	if err != nil {
		return nil, err
	}
	pc.m[key] = p
	return p, nil
}

// benchProg returns the sweep's shared instance of a benchmark kernel.
func (sw *Sweep) benchProg(name string) (*lbic.Program, error) {
	return sw.progs.get("bench/"+name, func() (*lbic.Program, error) { return lbic.BuildBenchmark(name) })
}

// patternProg returns the sweep's shared instance of a pattern microbenchmark.
func (sw *Sweep) patternProg(name string) (*lbic.Program, error) {
	return sw.progs.get("pat/"+name, func() (*lbic.Program, error) { return lbic.BuildPattern(name) })
}

// WithInsts returns a copy of the sweep at a different budget, sharing the
// failure log (lbictables runs ablations at a reduced budget but reports one
// combined failure appendix).
func (sw *Sweep) WithInsts(insts uint64) *Sweep {
	c := *sw
	c.Insts = insts
	return &c
}

// CellError is one failed or skipped cell.
type CellError struct {
	Key string
	Err error
}

type failureLog struct {
	mu   sync.Mutex
	list []CellError
}

func (l *failureLog) add(e CellError) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.list = append(l.list, e)
}

// Failures returns every cell that failed or was skipped across all
// experiments run through this sweep (and any WithInsts copies), in
// completion order.
func (sw *Sweep) Failures() []CellError {
	sw.log.mu.Lock()
	defer sw.log.mu.Unlock()
	return append([]CellError(nil), sw.log.list...)
}

func (sw *Sweep) context() context.Context {
	ctx := sw.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if sw.Spans != nil {
		ctx = lbic.WithTrace(ctx, sw.Spans)
	}
	return ctx
}

func (sw *Sweep) options() runner.Options {
	return runner.Options{
		Jobs:      sw.Jobs,
		Timeout:   sw.Timeout,
		Retries:   sw.Retries,
		KeepGoing: sw.KeepGoing,
		Stop:      sw.Stop,
		OnCell:    sw.OnCell,
	}
}

// sweepRun executes cells under the sweep's policy and returns the
// successful values keyed by cell key; failed and skipped cells are recorded
// in the failure log and simply absent from the map. The error is nil unless
// the context was canceled or (without KeepGoing) a cell failed.
func sweepRun[T any](sw *Sweep, cells []runner.Cell[T]) (map[string]T, error) {
	m := make(map[string]T, len(cells))
	cells = settleCached(sw, cells, m)
	injectFaults(sw, cells)
	out, err := runner.Run(sw.context(), cells, sw.options())
	for _, r := range out.Results {
		if r.Err == nil {
			m[r.Key] = r.Value
			sw.record(r.Key, r.Value)
		} else {
			sw.log.add(CellError{Key: r.Key, Err: r.Err})
		}
	}
	return m, err
}

// injectFaults sabotages cells whose key matches an injection substring.
func injectFaults[T any](sw *Sweep, cells []runner.Cell[T]) {
	if len(sw.InjectPanic) == 0 && len(sw.InjectHang) == 0 {
		return
	}
	for i := range cells {
		key := cells[i].Key
		switch {
		case matchAny(key, sw.InjectPanic):
			cells[i].Run = func(context.Context) (T, error) {
				panic(fmt.Sprintf("injected panic in cell %s", key))
			}
		case matchAny(key, sw.InjectHang):
			cells[i].Run = func(context.Context) (T, error) {
				select {} // deliberately ignores ctx: models a wedged cell
			}
		}
	}
}

func matchAny(key string, subs []string) bool {
	for _, s := range subs {
		if s != "" && strings.Contains(key, s) {
			return true
		}
	}
	return false
}

// --- cell constructors ---
// Keys are stable, human-readable encodings of the full cell configuration;
// they are the cell store's identity, so anything that changes the
// simulated configuration must appear in the key.

// simBench is one benchmark under one port organization at the sweep budget.
func (sw *Sweep) simBench(name string, port lbic.PortConfig) runner.Cell[float64] {
	return sw.simBenchMut(name, port, "", nil)
}

// simBenchMut is simBench with a Config mutation; suffix must uniquely
// encode the mutation (e.g. "lsq32") since PortConfig.Name does not see it.
func (sw *Sweep) simBenchMut(name string, port lbic.PortConfig, suffix string, mut func(*lbic.Config)) runner.Cell[float64] {
	key := fmt.Sprintf("sim/%s/%s/i%d", name, port.Key(), sw.Insts)
	if suffix != "" {
		key += "/" + suffix
	}
	return sw.simCell(key, key, pickIPC, func() (*lbic.Program, error) { return sw.benchProg(name) }, port, mut)
}

// simPattern is one access-pattern microbenchmark under one port
// organization.
func (sw *Sweep) simPattern(name string, port lbic.PortConfig) runner.Cell[float64] {
	key := fmt.Sprintf("sim/pat:%s/%s/i%d", name, port.Key(), sw.Insts)
	return sw.simCell(key, key, pickIPC, func() (*lbic.Program, error) { return sw.patternProg(name) }, port, nil)
}

// simCell is a program-backed simulation cell at the sweep budget. memoKey
// names the simulated point: the full cell key for IPC cells, so the same
// (program, port, budget, mutation) point appearing in two tables of one
// invocation is simulated once.
func (sw *Sweep) simCell(key, memoKey string, pick func(*lbic.Result) float64, build func() (*lbic.Program, error), port lbic.PortConfig, mut func(*lbic.Config)) runner.Cell[float64] {
	insts := sw.Insts
	return sw.simMemoCell(key, memoKey, pick, func(ctx context.Context) (lbic.Result, error) {
		prog, err := build()
		if err != nil {
			return lbic.Result{}, err
		}
		cfg := lbic.DefaultConfig()
		cfg.Port = port
		cfg.MaxInsts = insts
		cfg.Trace = sw.traceCache()
		if mut != nil {
			mut(&cfg)
		}
		return lbic.SimulateContext(ctx, prog, cfg)
	})
}

// simBenchConflict is simBench reduced to the port conflict rate (stalled
// requests per granted access). Distinct key namespace — the stored value
// differs — but the memo key matches the IPC cell's, so the same
// (benchmark, port, budget) point appearing in an IPC table and a conflict
// table is simulated once.
func (sw *Sweep) simBenchConflict(name string, port lbic.PortConfig) runner.Cell[float64] {
	key := fmt.Sprintf("sim/conf/%s/%s/i%d", name, port.Key(), sw.Insts)
	memoKey := fmt.Sprintf("sim/%s/%s/i%d", name, port.Key(), sw.Insts)
	pick := func(r *lbic.Result) float64 { return r.PortConflictRate() }
	return sw.simCell(key, memoKey, pick, func() (*lbic.Program, error) { return sw.benchProg(name) }, port, nil)
}

func pickIPC(r *lbic.Result) float64 { return r.IPC }

// charCell measures a benchmark's Table 2 characteristics against a given
// L1 geometry.
// charCell (and missRateCell, refCell below) streams from the caller's
// trace cache only: a characterization pass is a single sequential read, so
// replaying costs the same as re-emulating and a sweep-private recording
// would never be repaid within the cell's own table.
func (sw *Sweep) charCell(name string, geom lbic.Geometry) runner.Cell[lbic.BenchmarkStats] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("char/%s/%s/i%d", name, geomKey(geom), insts)
	return runner.Cell[lbic.BenchmarkStats]{Key: key, Run: func(ctx context.Context) (lbic.BenchmarkStats, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return lbic.BenchmarkStats{}, err
		}
		return lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: insts, Geom: geom, Trace: tc})
	}}
}

// missRateCell is charCell reduced to the miss rate, for the capacity and
// associativity grids. Distinct key namespace: the stored value differs.
func (sw *Sweep) missRateCell(name string, geom lbic.Geometry) runner.Cell[float64] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("miss/%s/%s/i%d", name, geomKey(geom), insts)
	return runner.Cell[float64]{Key: key, Run: func(ctx context.Context) (float64, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return 0, err
		}
		s, err := lbic.Characterize(ctx, prog, lbic.CharacterizeOptions{Insts: insts, Geom: geom, Trace: tc})
		if err != nil {
			return 0, err
		}
		return s.MissRate, nil
	}}
}

func geomKey(g lbic.Geometry) string {
	return fmt.Sprintf("s%d-a%d-l%d", g.Size, g.Assoc, g.LineSize)
}

// refCell computes a benchmark's consecutive-reference distribution over an
// infinite banks-way line-interleaved cache.
func (sw *Sweep) refCell(name string, banks, lineSize int) runner.Cell[lbic.Distribution] {
	insts := sw.Insts
	tc := sw.Trace
	key := fmt.Sprintf("refs/%s/b%d-l%d/i%d", name, banks, lineSize, insts)
	return runner.Cell[lbic.Distribution]{Key: key, Run: func(ctx context.Context) (lbic.Distribution, error) {
		prog, err := sw.benchProg(name)
		if err != nil {
			return lbic.Distribution{}, err
		}
		return lbic.AnalyzeRefStream(ctx, prog, lbic.RefStreamOptions{Banks: banks, LineSize: lineSize, Insts: insts, Trace: tc})
	}}
}

// --- grid rendering ---

// errCell is how a failed or skipped cell renders in tables; the failure
// appendix carries the details.
const errCell = "ERR"

// fmtCell renders a value or ERR.
func fmtCell(v float64, ok bool, format func(float64) string) string {
	if !ok {
		return errCell
	}
	return format(v)
}

// column is one column of an IPC (or miss-rate) grid: a header and a cell
// constructor per benchmark.
type column struct {
	header string
	cell   func(bench string) runner.Cell[float64]
}

// grid runs a benches x columns sweep and renders it with a per-column
// average row over the successful cells (the historical hard-coded /10
// denominators silently mis-averaged partial sweeps; stats.Mean over the
// values actually present does not).
func grid(sw *Sweep, tableTitle string, benches []string, cols []column, format func(float64) string, withAvg bool) (*stats.Table, error) {
	if format == nil {
		format = stats.FormatIPC
	}
	keys := make([][]string, len(benches))
	var cells []runner.Cell[float64]
	for bi, b := range benches {
		keys[bi] = make([]string, len(cols))
		for ci, c := range cols {
			cell := c.cell(b)
			keys[bi][ci] = cell.Key
			cells = append(cells, cell)
		}
	}
	got, err := sweepRun(sw, cells)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, c := range cols {
		headers = append(headers, c.header)
	}
	t := stats.NewTable(tableTitle, headers...)
	colVals := make([][]float64, len(cols))
	for bi, b := range benches {
		row := []string{title(b)}
		for ci := range cols {
			v, ok := got[keys[bi][ci]]
			if ok {
				colVals[ci] = append(colVals[ci], v)
			}
			row = append(row, fmtCell(v, ok, format))
		}
		t.AddRow(row...)
	}
	if withAvg {
		row := []string{"Average"}
		for ci := range cols {
			row = append(row, fmtCell(stats.Mean(colVals[ci]), len(colVals[ci]) > 0, format))
		}
		t.AddRow(row...)
	}
	return t, nil
}

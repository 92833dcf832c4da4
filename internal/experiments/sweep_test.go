package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lbic"
	"lbic/internal/cellstore"
	"lbic/internal/runner"
	"lbic/internal/stats"
)

// testGrid is a tiny pattern x port grid that exercises the sweep machinery
// end to end: four cells at a 5k budget, keys
// sim/pat:{unit-stride,random}/{true-1,bank-4}/i5000.
func testGrid(sw *Sweep) (*stats.Table, error) {
	ports := []lbic.PortConfig{lbic.IdealPort(1), lbic.BankedPort(4)}
	cols := make([]column, len(ports))
	for i, port := range ports {
		port := port
		cols[i] = column{header: port.Name(), cell: func(pat string) runner.Cell[float64] {
			return sw.simPattern(pat, port)
		}}
	}
	return grid(sw, "test grid", []string{"unit-stride", "random"}, cols, stats.FormatIPC, true)
}

// One injected panicking cell and one injected hung cell must cost exactly
// those two cells: the table still renders, bad cells as ERR, and the
// failure log names both.
func TestSweepRendersERRForInjectedFaults(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 4
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond
	sw.InjectPanic = []string{"pat:unit-stride/true-1"}
	sw.InjectHang = []string{"pat:random/bank-4"}

	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, errCell); got != 2 {
		t.Errorf("rendered table has %d ERR cells, want 2:\n%s", got, out)
	}
	// Each column keeps one healthy cell, so the average row stays numeric.
	if strings.Contains(strings.SplitAfter(out, "Average")[1], errCell) {
		t.Errorf("average row has ERR despite surviving cells:\n%s", out)
	}

	fails := sw.Failures()
	if len(fails) != 2 {
		t.Fatalf("Failures() = %d entries, want 2: %v", len(fails), fails)
	}
	msgs := map[string]string{}
	for _, f := range fails {
		msgs[f.Key] = f.Err.Error()
	}
	if m := msgs["sim/pat:unit-stride/true-1/i5000"]; !strings.Contains(m, "injected panic") {
		t.Errorf("panic cell error = %q, want injected panic", m)
	}
	if m := msgs["sim/pat:random/bank-4/i5000"]; !strings.Contains(m, "deadline") {
		t.Errorf("hung cell error = %q, want deadline exceeded", m)
	}
}

// A rerun on the same cell store must serve completed cells from it and
// rerun only the failed one: one cell span, three store hits, one new put.
func TestSweepResumeRerunsOnlyFailedCells(t *testing.T) {
	dir := t.TempDir()
	sw := NewSweep(5_000)
	sw.KeepGoing = true
	sw.Store = cellstore.New(-1, dir)
	sw.InjectPanic = []string{"pat:random/bank-4"}
	if got := strings.Count(renderText(t, sw), errCell); got != 1 {
		t.Fatalf("first pass has %d ERR cells, want 1", got)
	}
	if n := sw.Store.Stats().Puts; n != 3 {
		t.Fatalf("first pass stored %d cells, want 3", n)
	}

	sw2 := NewSweep(5_000)
	sw2.Store = cellstore.New(-1, dir)
	sw2.Spans = lbic.NewRequestTrace()
	if out := renderText(t, sw2); strings.Contains(out, errCell) {
		t.Errorf("rerun rendered ERR:\n%s", out)
	}
	var ran []string
	for _, sp := range sw2.Spans.Snapshot() {
		if strings.HasPrefix(sp.Name, "cell ") {
			ran = append(ran, sp.Name)
		}
	}
	if len(ran) != 1 || !strings.Contains(ran[0], "pat:random/bank-4") {
		t.Errorf("rerun ran %v, want only the failed cell", ran)
	}
	if st := sw2.Store.Stats(); st.DiskHits != 3 || st.Puts != 1 {
		t.Errorf("rerun store traffic = %+v, want 3 hits and 1 put", st)
	}
}

// A sweep on a reopened store renders the stored values themselves, not a
// recomputation: a planted value shows in its cell, and no cell runs.
func TestSweepStoreRoundTripResume(t *testing.T) {
	dir := t.TempDir()
	sw := NewSweep(5_000)
	sw.Store = cellstore.New(-1, dir)
	renderText(t, sw)

	cellstore.New(-1, dir).Put(cellSchema, "sim/pat:random/bank-4/i5000", []byte("7.25"))

	sw2 := NewSweep(5_000)
	sw2.Store = cellstore.New(-1, dir)
	sw2.Spans = lbic.NewRequestTrace()
	if out := renderText(t, sw2); !strings.Contains(out, "7.250") {
		t.Errorf("planted value not rendered:\n%s", out)
	}
	for _, sp := range sw2.Spans.Snapshot() {
		if strings.HasPrefix(sp.Name, "cell ") {
			t.Errorf("resumed sweep ran %s", sp.Name)
		}
	}
	if st := sw2.Store.Stats(); st.DiskHits != 4 || st.Puts != 0 {
		t.Errorf("resumed store traffic = %+v, want 4 hits and no puts", st)
	}
}

// A stored cell targeted by InjectPanic renders ERR: fault injection wins
// over the store, so a drill on a finished sweep still exercises the
// fault-isolation path.
func TestSweepInjectPanicOnStoredCellRendersERR(t *testing.T) {
	dir := t.TempDir()
	sw := NewSweep(5_000)
	sw.Store = cellstore.New(-1, dir)
	renderText(t, sw)

	sw2 := NewSweep(5_000)
	sw2.Store = cellstore.New(-1, dir)
	sw2.KeepGoing = true
	sw2.InjectPanic = []string{"pat:random/bank-4"}
	if got := strings.Count(renderText(t, sw2), errCell); got != 1 {
		t.Errorf("stored cell targeted by InjectPanic: %d ERR cells, want 1", got)
	}
	if fails := sw2.Failures(); len(fails) != 1 || !strings.Contains(fails[0].Err.Error(), "injected panic") {
		t.Errorf("Failures() = %v, want the injected panic alone", fails)
	}
}

// The rendered output must be identical whether cells run serially or on
// eight workers: results are keyed, not ordered by completion.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		sw := NewSweep(5_000)
		sw.Jobs = jobs
		tab, err := testGrid(sw)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		var sb strings.Builder
		if err := tab.JSON(&sb); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if err := tab.Render(&sb); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("serial and jobs=8 output differ:\n--- serial ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
}

// A sweep with Spans set must record every cell and its simulate child as a
// validated span tree, including on faulted cells.
func TestSweepSpansRecorded(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.KeepGoing = true
	sw.Timeout = 500 * time.Millisecond
	sw.InjectPanic = []string{"pat:unit-stride/true-1"}
	sw.Spans = lbic.NewRequestTrace()

	if _, err := testGrid(sw); err != nil {
		t.Fatal(err)
	}
	spans := sw.Spans.Snapshot()
	if _, err := lbic.ValidateTraceTree(spans, false); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	var cells, sims int
	for _, sp := range spans {
		if sp.Open {
			t.Errorf("span %q left open after the sweep", sp.Name)
		}
		switch {
		case strings.HasPrefix(sp.Name, "cell "):
			cells++
			if strings.Contains(sp.Name, "pat:unit-stride/true-1") && sp.Attrs["error"] == nil {
				t.Errorf("injected-panic cell span missing error attr: %v", sp.Attrs)
			}
		case strings.HasPrefix(sp.Name, "simulate "):
			sims++
			if sp.Attrs["cycles"] == nil {
				t.Errorf("simulate span %q missing cycles attr: %v", sp.Name, sp.Attrs)
			}
		}
	}
	// Four cells in the grid; the panicking cell (with one retry) never
	// reaches SimulateContext, so it contributes no simulate span.
	if cells != 4 || sims != 3 {
		t.Errorf("spans = %d cells, %d sims; want 4 and 3", cells, sims)
	}
}

// renderText runs testGrid on sw and returns its rendered text.
func renderText(t *testing.T, sw *Sweep) string {
	t.Helper()
	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// renderGrid runs testGrid on sw and returns its JSON and rendered text.
func renderGrid(t *testing.T, sw *Sweep) string {
	t.Helper()
	tab, err := testGrid(sw)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab.JSON(&sb); err != nil {
		t.Fatal(err)
	}
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// Regenerating a grid on a finished sweep must settle every cell before the
// runner: store hits and memo hits open no cell spans, fire OnCell once,
// and a memo hit is stored exactly once. A fault injected on a memo-hit key
// must still land.
func TestSweepMemoHitsSettleBeforeRunner(t *testing.T) {
	sw := NewSweep(5_000)
	sw.Jobs = 2
	sw.Spans = lbic.NewRequestTrace()
	sw.Store = cellstore.New(-1, t.TempDir())
	calls := map[string]int{}
	sw.OnCell = func(key string, err error) {
		if err != nil {
			t.Errorf("cell %s: %v", key, err)
		}
		calls[key]++
	}
	cellSpans := func() int {
		n := 0
		for _, sp := range sw.Spans.Snapshot() {
			if strings.HasPrefix(sp.Name, "cell ") {
				n++
			}
		}
		return n
	}
	// pass regenerates the grid and checks it against the first output,
	// that no cell span opened and that OnCell fired once per key.
	var first string
	pass := func(name string) {
		t.Helper()
		clear(calls)
		spans := cellSpans()
		if got := renderGrid(t, sw); got != first {
			t.Errorf("%s: output differs:\n--- first ---\n%s\n--- %s ---\n%s", name, first, name, got)
		}
		if n := cellSpans() - spans; n != 0 {
			t.Errorf("%s opened %d cell spans, want 0", name, n)
		}
		if len(calls) != 4 {
			t.Errorf("%s: OnCell saw %d keys, want 4", name, len(calls))
		}
		for k, n := range calls {
			if n != 1 {
				t.Errorf("%s: OnCell fired %d times for %s, want 1", name, n, k)
			}
		}
	}

	first = renderGrid(t, sw)
	if n := cellSpans(); n != 4 {
		t.Fatalf("first pass opened %d cell spans, want 4", n)
	}
	pass("store pass")
	if st := sw.Store.Stats(); st.DiskHits != 4 || st.Puts != 4 {
		t.Errorf("store pass traffic = %+v, want 4 hits and no new puts", st)
	}

	// A fresh store leaves only the memo to answer; each memo hit is stored
	// once.
	sw.Store = cellstore.New(-1, t.TempDir())
	pass("memo pass")
	if st := sw.Store.Stats(); st.DiskHits != 0 || st.Puts != 4 {
		t.Errorf("memo pass traffic = %+v, want 4 puts", st)
	}

	sw.Store = nil
	sw.KeepGoing = true
	sw.InjectPanic = []string{"pat:random/bank-4"}
	clear(calls)
	sw.OnCell = func(key string, err error) { calls[key]++ }
	if out := renderText(t, sw); strings.Count(out, errCell) != 1 {
		t.Errorf("injected memo-hit cell: want 1 ERR cell:\n%s", out)
	}
	if len(calls) != 4 {
		t.Errorf("injected pass: OnCell saw %d keys, want 4", len(calls))
	}
}

// Without KeepGoing, a failed cell stops the sweep with the runner's error,
// which names the failed cell.
func TestSweepFailFastNamesCell(t *testing.T) {
	sw := NewSweep(5_000)
	cell := sw.simBench("no-such-benchmark", lbic.BankedPort(4))
	_, err := sweepRun(sw, []runner.Cell[float64]{cell})
	if err == nil {
		t.Fatal("sweep with an unbuildable cell returned nil error")
	}
	if want := fmt.Sprintf("runner: cell %q", cell.Key); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	if fails := sw.Failures(); len(fails) != 1 || fails[0].Key != cell.Key {
		t.Errorf("Failures() = %v, want only %s", fails, cell.Key)
	}
}

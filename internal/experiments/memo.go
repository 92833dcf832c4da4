package experiments

// Shared-point result memo: simulation cells that read the same simulated
// point — the same (program, port, budget, mutation) appearing in two tables,
// or the IPC and conflict-rate views of one run — simulate it once per sweep.
// Cells already answered by the cell store or the memo settle before the
// runner sees them, so a table regenerated from a finished sweep opens no
// cell spans and schedules no work.

import (
	"context"
	"encoding/json"
	"sync"

	"lbic"
	"lbic/internal/runner"
)

// simSpec is a simulation cell's memo identity: memoKey names the simulated
// point (two views of one simulation share it) and pick reads the cell's
// value from that point's Result.
type simSpec struct {
	memoKey string
	pick    func(*lbic.Result) float64
}

// specRegistry maps cell keys to their memo identities. Cells without a
// registered spec (characterization, miss-rate grids) settle early only from
// the cell store.
type specRegistry struct {
	mu sync.Mutex
	m  map[string]simSpec
}

func (r *specRegistry) put(key string, s simSpec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[key] = s
}

func (r *specRegistry) get(key string) (simSpec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[key]
	return s, ok
}

// resultMemo caches completed simulation Results by memoKey for the lifetime
// of one sweep. Replay determinism makes a second simulation of the same
// point identical, so reuse cannot change any output. It is not the cell
// store: it holds unserialized Results per simulated point, and two cell
// keys (the IPC and conflict-rate views) read one point.
type resultMemo struct {
	mu sync.Mutex
	m  map[string]*lbic.Result
}

func (m *resultMemo) get(key string) (*lbic.Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.m[key]
	return r, ok
}

func (m *resultMemo) put(key string, r *lbic.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.m[key] = r
}

// simMemoCell registers a simulation cell's memo identity and returns the
// cell: it serves its value from the memo when another cell already
// simulated the point, and otherwise simulates and memoizes it.
func (sw *Sweep) simMemoCell(key, memoKey string, pick func(*lbic.Result) float64,
	simulate func(context.Context) (lbic.Result, error)) runner.Cell[float64] {
	sw.specs.put(key, simSpec{memoKey: memoKey, pick: pick})
	return runner.Cell[float64]{Key: key, Run: func(ctx context.Context) (float64, error) {
		if res, ok := sw.memo.get(memoKey); ok {
			return pick(res), nil
		}
		res, err := simulate(ctx)
		if err != nil {
			return 0, err
		}
		sw.memo.put(memoKey, &res)
		return pick(&res), nil
	}}
}

// settleCached stores into out every cell the cell store or the memo
// already answers, firing OnCell once for each, and returns the cells left
// to run. It is the only place a sweep reads stored cells. A memo hit is
// stored like a run cell. Cells targeted by fault injection never settle
// here, so an injected fault still lands on its cell.
func settleCached[T any](sw *Sweep, cells []runner.Cell[T], out map[string]T) []runner.Cell[T] {
	rest := make([]runner.Cell[T], 0, len(cells))
	for _, c := range cells {
		v, ok := cachedValue[T](sw, c.Key)
		if !ok {
			rest = append(rest, c)
			continue
		}
		out[c.Key] = v
		if sw.OnCell != nil {
			sw.OnCell(c.Key, nil)
		}
	}
	return rest
}

// cachedValue returns key's value from the cell store, or from the memo
// (then storing it), unless fault injection targets the cell.
func cachedValue[T any](sw *Sweep, key string) (T, bool) {
	var v T
	if matchAny(key, sw.InjectPanic) || matchAny(key, sw.InjectHang) {
		return v, false
	}
	// An entry that no longer unmarshals (the value type changed) is absent.
	if raw, ok := sw.Store.Get(cellSchema, key); ok && json.Unmarshal(raw, &v) == nil {
		return v, true
	}
	spec, ok := sw.specs.get(key)
	if !ok {
		return v, false
	}
	res, ok := sw.memo.get(spec.memoKey)
	if !ok {
		return v, false
	}
	// Specs are registered only for float64 cells, so the assertion holds.
	if v, ok = any(spec.pick(res)).(T); ok {
		sw.record(key, v)
	}
	return v, ok
}

// cellSchema addresses sweep values (an IPC, a BenchmarkStats, a
// Distribution, keyed by cell key) in the cell store, apart from the run
// reports lbicd stores under the same key strings.
const cellSchema = "lbic-sweep-cell/v1"

// record stores a finished cell's value in the sweep's cell store, if any.
// A value that does not marshal is simply not stored.
func (sw *Sweep) record(key string, v any) {
	if sw.Store == nil {
		return
	}
	if raw, err := json.Marshal(v); err == nil {
		sw.Store.Put(cellSchema, key, raw)
	}
}

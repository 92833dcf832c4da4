// Package runner executes sweeps of independent simulation cells — one cell
// per (program, port organization, budget) point — with bounded parallelism,
// per-cell fault isolation, retries and graceful shutdown. It exists so a
// single panicking arbiter, hung pipeline, or impatient ^C costs one table
// cell, not a whole evaluation run: every failure is contained in its cell's
// Result. Reusing finished cells is the caller's concern (internal/cellstore).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"lbic/internal/tracing"
)

// Cell is one independent unit of sweep work.
type Cell[T any] struct {
	// Key identifies the cell across runs; it must be unique within a sweep
	// and stable for a given configuration, because callers store finished
	// cells under it. Use a readable encoding of the full configuration,
	// e.g. "sim/compress/lbic-4x2/i1000000".
	Key string
	// Run computes the cell. It must honor ctx promptly: a cell that ignores
	// cancellation is abandoned (its goroutine leaks until it returns) once
	// the grace window after its deadline expires.
	Run func(ctx context.Context) (T, error)
}

// Result is the outcome of one cell.
type Result[T any] struct {
	Key   string
	Value T
	// Err is nil on success, ErrSkipped if the sweep stopped before the cell
	// started, a *PanicError if the cell panicked, or the cell's own error.
	Err error
	// Attempts counts executions (0 for skipped cells).
	Attempts int
	// Elapsed is the total wall-clock time across attempts.
	Elapsed time.Duration
}

// Options configures a sweep.
type Options struct {
	// Jobs bounds concurrently running cells; 0 or 1 means serial.
	Jobs int
	// Timeout bounds each attempt of each cell (0 = none).
	Timeout time.Duration
	// Retries is how many times a failed cell is re-attempted. Timeouts,
	// cancellations, and skips are never retried — a hung cell would just
	// hang again.
	Retries int
	// Backoff schedules the wait before each re-attempt. The zero value
	// selects DefaultBackoff (capped exponential with deterministic jitter);
	// set Backoff.Base < 0 for immediate retries.
	Backoff Backoff
	// KeepGoing makes Run return a nil error even when cells failed, leaving
	// per-cell errors in the Outcome; without it the first failure stops the
	// sweep (in-flight cells finish, unstarted ones are marked ErrSkipped).
	KeepGoing bool
	// Stop, when non-nil, requests graceful shutdown when it becomes
	// readable: no new cells start, in-flight cells finish (or time out),
	// and the remainder are marked ErrSkipped. Unlike ctx cancellation it is
	// not an error: Run returns the partial Outcome with a nil error.
	Stop <-chan struct{}
	// OnCell, when non-nil, is called after each cell settles (success,
	// failure, or skip), serialized across workers.
	OnCell func(key string, err error)
}

// Outcome is the result of a sweep: one Result per input cell, in input
// order, plus tallies.
type Outcome[T any] struct {
	Results []Result[T]
	Done    int // succeeded
	Failed  int // ran and failed
	Skipped int // never started (stop requested or fail-fast)
}

// ErrSkipped marks cells that never ran because the sweep stopped first.
var ErrSkipped = errors.New("runner: cell skipped")

// PanicError is a panic recovered from a cell, with the stack at the point
// of the panic.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error. The stack is deliberately not included — render it
// from the Stack field when wanted.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// abandonGrace is how long a timed-out cell gets to notice cancellation
// before its goroutine is abandoned. Package variable for tests.
var abandonGrace = 100 * time.Millisecond

// Run executes the cells and returns one Result each, in input order. The
// returned error is nil unless the context was canceled, a cell key is
// duplicated or empty, or (without Options.KeepGoing) a cell failed — in
// which case it wraps the first failure in input order. The Outcome is valid
// in every case, including on error.
func Run[T any](ctx context.Context, cells []Cell[T], opts Options) (Outcome[T], error) {
	out := Outcome[T]{Results: make([]Result[T], len(cells))}
	seen := make(map[string]struct{}, len(cells))
	for i, c := range cells {
		if c.Key == "" {
			return out, fmt.Errorf("runner: cell %d has an empty key", i)
		}
		if _, dup := seen[c.Key]; dup {
			return out, fmt.Errorf("runner: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}

	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards settle() and fail-fast bookkeeping
		sem      = make(chan struct{}, jobs)
		halt     = make(chan struct{}) // closed to stop launching new cells
		haltOnce sync.Once
		allDone  = make(chan struct{})
	)
	stop := func() { haltOnce.Do(func() { close(halt) }) }
	if opts.Stop != nil {
		go func() {
			select {
			case <-opts.Stop:
				stop()
			case <-allDone:
			}
		}()
	}

	settle := func(i int, r Result[T]) {
		mu.Lock()
		defer mu.Unlock()
		out.Results[i] = r
		switch {
		case r.Err == nil:
			out.Done++
		case errors.Is(r.Err, ErrSkipped):
			out.Skipped++
		default:
			out.Failed++
			if !opts.KeepGoing {
				stop()
			}
		}
		if opts.OnCell != nil {
			opts.OnCell(r.Key, r.Err)
		}
	}

	// stopRequested gives halt and Stop priority over a free worker slot: a
	// bare select picks among ready cases at random, which would let a cell
	// launch after shutdown was already requested.
	stopRequested := func() bool {
		if ctx.Err() != nil {
			return true
		}
		select {
		case <-halt:
			return true
		default:
		}
		if opts.Stop != nil {
			select {
			case <-opts.Stop:
				stop()
				return true
			default:
			}
		}
		return false
	}

	for i := range cells {
		skip := stopRequested()
		if !skip {
			select {
			case <-ctx.Done():
				skip = true
			case <-halt:
				skip = true
			case sem <- struct{}{}:
				// A stop may have arrived while we waited for the slot.
				if skip = stopRequested(); skip {
					<-sem
				}
			}
		}
		if skip {
			settle(i, Result[T]{Key: cells[i].Key, Err: ErrSkipped})
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			settle(i, runCell(ctx, cells[i], opts))
		}(i)
	}
	wg.Wait()
	close(allDone)

	if err := ctx.Err(); err != nil {
		return out, err
	}
	if !opts.KeepGoing {
		for _, r := range out.Results {
			if r.Err != nil && !errors.Is(r.Err, ErrSkipped) {
				return out, fmt.Errorf("runner: cell %q: %w", r.Key, r.Err)
			}
		}
	}
	return out, nil
}

// runCell executes one cell with retries.
//
// When ctx carries a trace, the cell contributes a "cell <key>" span
// covering every attempt. Only this goroutine annotates or ends the span —
// the attempt goroutine (which may outlive an abandoned cell) opens its own
// child spans instead — so a span is closed exactly once even across
// panics, deadlines, and abandonment.
func runCell[T any](ctx context.Context, c Cell[T], opts Options) Result[T] {
	ctx, span := tracing.Start(ctx, "cell "+c.Key)
	defer span.End()
	res := Result[T]{Key: c.Key}
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		v, err := runOnce(ctx, c, opts.Timeout)
		res.Value, res.Err = v, err
		if err == nil || attempt > opts.Retries || !retriable(err) {
			break
		}
		// Capped exponential backoff with deterministic jitter before the
		// next attempt; a canceled sweep stops waiting and keeps the cell's
		// own error (the cancellation is reported at the Run level).
		d := opts.Backoff.Delay(c.Key, attempt)
		span.Event("retry")
		span.SetAttr("backoff_ns", d.Nanoseconds())
		if sleepFn(ctx, d) != nil {
			break
		}
	}
	res.Elapsed = time.Since(start)
	span.SetAttr("attempts", res.Attempts)
	if res.Err != nil {
		span.SetAttr("error", res.Err.Error())
	}
	return res
}

// retriable reports whether an error is worth one more attempt: timeouts and
// cancellations are not (a hung cell hangs again; a canceled sweep is over),
// everything else — including panics, which may be data races or transient
// resource failures — is.
func retriable(err error) bool {
	return !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// runOnce executes one attempt under the per-cell timeout, converting panics
// to *PanicError. If the cell ignores cancellation past the grace window its
// goroutine is abandoned: it leaks until the cell function returns, but the
// sweep moves on.
func runOnce[T any](ctx context.Context, c Cell[T], timeout time.Duration) (T, error) {
	cctx, cancel := ctx, func() {}
	if timeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	type attempt struct {
		v   T
		err error
	}
	ch := make(chan attempt, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				ch <- attempt{zero, &PanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		// The pprof label makes per-cell cost visible in CPU profiles:
		// every sample inside the attempt carries the cell key, so
		// `go tool pprof -tagfocus` separates one cell from a sweep.
		var v T
		var err error
		pprof.Do(cctx, pprof.Labels("cell", c.Key), func(ctx context.Context) {
			v, err = c.Run(ctx)
		})
		ch <- attempt{v, err}
	}()

	// recordSlack notes how much of the per-cell deadline was left when the
	// attempt settled — the margin before the next tuning of Timeout starts
	// killing healthy cells. The span is owned by this (runCell's) goroutine.
	recordSlack := func() {
		if timeout > 0 {
			if dl, ok := cctx.Deadline(); ok {
				tracing.SpanFromContext(ctx).SetAttr("deadline_slack_ns", time.Until(dl).Nanoseconds())
			}
		}
	}
	select {
	case a := <-ch:
		recordSlack()
		return a.v, a.err
	case <-cctx.Done():
	}
	// Deadline or cancellation: give a cooperative cell a moment to unwind
	// (and accept a success that races the deadline), then abandon it.
	select {
	case a := <-ch:
		recordSlack()
		return a.v, a.err
	case <-time.After(abandonGrace):
		tracing.SpanFromContext(ctx).Event("abandoned")
		var zero T
		return zero, fmt.Errorf("runner: cell %q abandoned (did not stop within %v of cancellation): %w",
			c.Key, abandonGrace, cctx.Err())
	}
}

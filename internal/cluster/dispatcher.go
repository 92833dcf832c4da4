package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"lbic/client"
	"lbic/internal/cellstore"
	"lbic/internal/runner"
)

// ErrUnavailable wraps the terminal dispatch failure when the cluster could
// not serve a cell — no healthy workers, or every attempt failed. The
// coordinator's server reacts by degrading gracefully: it runs the cell
// in-process and the sweep completes anyway.
var ErrUnavailable = errors.New("cluster: cell unavailable")

// Options configures a Dispatcher.
type Options struct {
	// Attempts bounds dispatch attempts per cell, each onto the next worker
	// in the key's preference sequence. Default 3.
	Attempts int
	// Backoff schedules the wait between attempts (deterministic per cell
	// key, shared with internal/runner). Zero value = runner.DefaultBackoff.
	Backoff runner.Backoff
	// AttemptTimeout bounds one attempt (primary plus its hedge). Default
	// 5m, matching the server's default per-cell deadline; < 0 for none.
	AttemptTimeout time.Duration
	// HedgeAfter fires a duplicate dispatch onto the next preferred worker
	// when the primary has not answered within this window; the first result
	// wins and the loser's request is canceled. 0 disables hedging.
	HedgeAfter time.Duration
	// Log receives dispatch-level warnings. Default: discard.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Attempts <= 0 {
		o.Attempts = 3
	}
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = 5 * time.Minute
	} else if o.AttemptTimeout < 0 {
		o.AttemptTimeout = 0
	}
	if o.Log == nil {
		o.Log = slog.New(discardHandler{})
	}
	return o
}

// Dispatcher routes cells onto a Pool of workers with the full robustness
// story: consistent-hash placement, per-cell retry with capped exponential
// backoff onto a different worker, hedged duplicate dispatch for
// stragglers, and a terminal ErrUnavailable that tells the caller to
// degrade to local execution. It implements the server's RemoteExecutor
// contract.
type Dispatcher struct {
	pool *Pool
	opts Options

	dispatched  atomic.Uint64
	remoteOK    atomic.Uint64
	retries     atomic.Uint64
	hedges      atomic.Uint64
	hedgeWins   atomic.Uint64
	unavailable atomic.Uint64
}

// NewDispatcher builds a dispatcher over a pool.
func NewDispatcher(pool *Pool, opts Options) *Dispatcher {
	return &Dispatcher{pool: pool, opts: opts.withDefaults()}
}

// Pool returns the dispatcher's worker pool.
func (d *Dispatcher) Pool() *Pool { return d.pool }

// Execute serves one cell from the cluster: a worker dispatch with retry
// and hedging. A non-nil error means the cluster could not produce the
// report (wrapped ErrUnavailable unless the context ended) and the caller
// should run the cell locally.
func (d *Dispatcher) Execute(ctx context.Context, req client.SimulateRequest, key string) ([]byte, error) {
	d.dispatched.Add(1)
	lastErr := errors.New("no healthy workers")
	for attempt := 0; attempt < d.opts.Attempts; attempt++ {
		// Re-read the membership every attempt: a worker evicted while this
		// cell was in flight drops out of the sequence, which is exactly the
		// automatic re-sharding of in-flight work.
		seq := d.pool.Sequence(key)
		if len(seq) == 0 {
			break
		}
		if attempt > 0 {
			d.retries.Add(1)
			if err := sleepCtx(ctx, d.opts.Backoff.Delay(key, attempt)); err != nil {
				return nil, err
			}
		}
		primary := seq[attempt%len(seq)]
		var backup *Worker
		if len(seq) > 1 {
			backup = seq[(attempt+1)%len(seq)]
		}
		b, err := d.attempt(ctx, primary, backup, req)
		if err == nil {
			d.remoteOK.Add(1)
			return b, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		d.opts.Log.Warn("cluster: attempt failed", "key", key, "attempt", attempt+1,
			"worker", primary.Addr(), "err", err)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusBadRequest {
			// Every worker will reject the same request the same way; let
			// the local (authoritative) execution produce the error.
			break
		}
	}
	d.unavailable.Add(1)
	return nil, fmt.Errorf("%w: %q after %d attempts: %v", ErrUnavailable, key, d.opts.Attempts, lastErr)
}

// attempt runs one dispatch: the primary worker, plus — when the primary
// stalls past HedgeAfter and a distinct backup exists — a hedged duplicate.
// The first success wins and cancels the other request; when both fail the
// primary's error is preferred (the hedge usually fails for the same
// reason, one hop later).
func (d *Dispatcher) attempt(ctx context.Context, primary, backup *Worker, req client.SimulateRequest) ([]byte, error) {
	actx, cancel := context.WithCancel(ctx)
	if d.opts.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, d.opts.AttemptTimeout)
	}
	defer cancel()

	type result struct {
		b     []byte
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	call := func(w *Worker, hedge bool) {
		w.dispatched.Add(1)
		b, err := w.c.Simulate(actx, req)
		if err != nil {
			w.errors.Add(1)
		} else {
			w.served.Add(1)
		}
		ch <- result{b, err, hedge}
	}
	go call(primary, false)

	var hedgeC <-chan time.Time
	if backup != nil && backup != primary && d.opts.HedgeAfter > 0 {
		t := time.NewTimer(d.opts.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	outstanding := 1
	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			outstanding++
			d.hedges.Add(1)
			go call(backup, true)
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					d.hedgeWins.Add(1)
				}
				cancel() // the loser's request is torn down
				return r.b, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, firstErr
}

// Status snapshots the cluster for GET /v1/cluster. The store counters are
// the serving process's to fill.
func (d *Dispatcher) Status() client.ClusterStatus {
	return client.ClusterStatus{
		Fingerprint: cellstore.ModelFingerprint,
		Workers:     d.pool.Status(),
		Dispatched:  d.dispatched.Load(),
		RemoteOK:    d.remoteOK.Load(),
		Retries:     d.retries.Load(),
		Hedges:      d.hedges.Load(),
		HedgeWins:   d.hedgeWins.Load(),
		Unavailable: d.unavailable.Load(),
	}
}

// sleepCtx waits for d or ctx, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

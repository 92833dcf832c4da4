package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// A run sets its workload up at least minSetups times, and until the
// set-ups have taken setupBudget, so that cheap set-ups are timed often
// enough for a steady median; the last set-up is the one measured.
const (
	minSetups   = 11
	maxSetups   = 1000
	setupBudget = 250 * time.Millisecond
)

// roundSample is what one round of a workload did. The workload fills the
// operation fields; timedRun fills wall, cpu and alloc around the round.
type roundSample struct {
	wall  time.Duration
	cpu   time.Duration // user+sys from getrusage
	alloc uint64        // bytes allocated

	insts uint64 // simulated instructions committed by the timing core
	ops   int    // operations completed (cells or requests)
	// hit, miss and all are per-operation latencies: answered from a store
	// of finished results, simulated, and every operation.
	hit, miss, all []time.Duration
	// tail, when set, is the round's own tail latency (paper-sweep, whose
	// operations are too few for a pooled percentile).
	tail time.Duration
	jobs []time.Duration
	tally
}

// tailQuantile is the quantile req_tail_ms reports for workloads that pool
// per-operation latencies; each run must have at least ten samples beyond it.
var tailQuantile = map[string]float64{
	"cold-cells": 0.95,
	"served-mix": 0.99,
}

// timedRun sets the workload up repeatedly, runs rounds until the
// timed region has lasted seconds, checks the outputs and reports every
// end-to-end metric.
func timedRun(mk func() workload, name string, seed uint64, seconds int) (result, error) {
	var (
		w      workload
		setups []float64
		spent  time.Duration
	)
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		runtime.GC()
		cand := mk()
		t0 := time.Now()
		if err := cand.setup(seed); err != nil {
			cand.close()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if w != nil {
			w.close()
		}
		w = cand
	}
	defer w.close()

	var rounds []roundSample
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(rounds) == 0 || time.Now().Before(deadline) {
		if err := w.beforeRound(); err != nil {
			return result{}, err
		}
		runtime.GC()
		var s roundSample
		a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
		if err := w.round(&s); err != nil {
			return result{}, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		s.wall, s.cpu, s.alloc = time.Since(t0), cpuTime()-c0, totalAlloc()-a0
		rounds = append(rounds, s)
	}

	var t tally
	var ops int
	var hit, miss, all, jobs, tails []time.Duration
	var kips, nsPerInst, reqRate, allocMB []float64
	for _, s := range rounds {
		t.add(s.tally)
		ops += s.ops
		hit, miss, all = append(hit, s.hit...), append(miss, s.miss...), append(all, s.all...)
		jobs = append(jobs, s.jobs...)
		if s.tail > 0 {
			tails = append(tails, s.tail)
		}
		if s.insts > 0 {
			kips = append(kips, float64(s.insts)/1e3/s.wall.Seconds())
			nsPerInst = append(nsPerInst, float64(s.cpu.Nanoseconds())/float64(s.insts))
		}
		reqRate = append(reqRate, float64(s.ops)/s.wall.Seconds())
		allocMB = append(allocMB, float64(s.alloc)/(1<<20))
	}
	fmt.Printf("per-round sim_kips q1/median/q3: %.0f/%.0f/%.0f over %d rounds\n",
		quantile(kips, 0.25), median(kips), quantile(kips, 0.75), len(kips))
	checked, err := w.check()
	if err != nil {
		return result{}, fmt.Errorf("check: %w", err)
	}
	t.add(checked)
	fmt.Printf("digest: %s %s\n", name, w.digest())

	tail := medianDur(tails)
	if q, ok := tailQuantile[name]; ok {
		tail = quantileDur(all, q)
		beyond := int(math.Floor(float64(len(all)) * (1 - q)))
		fmt.Printf("req_tail_ms: p%.0f of %d operations, %d beyond it\n", 100*q, len(all), beyond)
		if beyond < 10 {
			return result{}, fmt.Errorf("only %d samples beyond p%.0f; lengthen the run", beyond, 100*q)
		}
	}
	m := map[string]metric{
		"sim_kips":        {median(kips), "kinst/s"},
		"cpu_ns_per_inst": {median(nsPerInst), "ns"},
		"req_per_s":       {median(reqRate), "1/s"},
		"hit_p50_ms":      {ms(medianDur(hit)), "ms"},
		"miss_p50_ms":     {ms(medianDur(miss)), "ms"},
		"req_tail_ms":     {ms(tail), "ms"},
		"job_s":           {medianDur(jobs).Seconds(), "s"},
		"setup_s":         {median(setups), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"alloc_mb":        {median(allocMB), "MB"},
	}
	fmt.Printf("samples: rounds=%d ops=%d hits=%d misses=%d latencies=%d jobs=%d setups=%d\n",
		len(rounds), ops, len(hit), len(miss), len(all), len(jobs), len(setups))
	fmt.Printf("error_rate: %d/%d = %.4f\n", t.failed, t.attempted, float64(t.failed)/math.Max(1, float64(t.attempted)))
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-16s %12.4f %s\n", k, m[k].Value, m[k].Unit)
		if !(m[k].Value > 0) {
			return result{}, fmt.Errorf("metric %s has no samples", k)
		}
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- measurement helpers ---

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func medianDur(ds []time.Duration) time.Duration { return quantileDur(ds, 0.5) }

//go:build ignore

// The coreab harness. scripts/coreab writes it into a temporary copy of the
// module, next to internal/cpuab (the timing core at the compared revision)
// and a root-package file exporting CoreABArbiter, and runs it there with
// the number of repetitions as its one argument; it does not build in the
// checkout itself.
package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	"lbic"
	"lbic/internal/cache"
	"lbic/internal/cpu"
	"lbic/internal/cpuab"
	"lbic/internal/emu"
	"lbic/internal/ports"
	"lbic/internal/tracecache"
)

// cell is one kernel under one port organization, replayed from a recording.
type cell struct {
	name string
	port lbic.PortConfig
	tr   *tracecache.Trace
}

// insts is the instructions per cell, as in the paper-sweep workload.
const insts = 50000

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func parts(c cell) (*cache.Hierarchy, ports.Arbiter, error) {
	params := cache.DefaultParams()
	arb, err := lbic.CoreABArbiter(c.port, params.L1.LineSize)
	if err != nil {
		return nil, nil, err
	}
	hier, err := cache.NewHierarchy(params)
	return hier, arb, err
}

// runNew and runOld run one cell on the working tree's core and on the
// revision's, returning the Stats as text and the run's thread CPU time.
func runNew(c cell) (string, time.Duration, error) {
	hier, arb, err := parts(c)
	if err != nil {
		return "", 0, err
	}
	cfg := cpu.DefaultConfig()
	cfg.MaxInsts = insts
	core, err := cpu.New(c.tr.NewReader(), hier, arb, cfg)
	if err != nil {
		return "", 0, err
	}
	t0 := threadCPU()
	st, err := core.Run()
	return fmt.Sprintf("%+v", st), threadCPU() - t0, err
}

func runOld(c cell) (string, time.Duration, error) {
	hier, arb, err := parts(c)
	if err != nil {
		return "", 0, err
	}
	cfg := cpuab.DefaultConfig()
	cfg.MaxInsts = insts
	core, err := cpuab.New(c.tr.NewReader(), hier, arb, cfg)
	if err != nil {
		return "", 0, err
	}
	t0 := threadCPU()
	st, err := core.Run()
	return fmt.Sprintf("%+v", st), threadCPU() - t0, err
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	if len(os.Args) != 2 {
		fail(fmt.Errorf("usage: harness <reps>"))
	}
	reps, err := strconv.Atoi(os.Args[1])
	if err != nil || reps < 1 {
		fail(fmt.Errorf("bad repetition count %q", os.Args[1]))
	}
	runtime.LockOSThread()

	orgs := []lbic.PortConfig{lbic.IdealPort(4), lbic.ReplicatedPort(4), lbic.BankedPort(4),
		lbic.LBICPort(4, 2), lbic.CodedPort(4, 1)}
	var cells []cell
	for _, n := range lbic.BenchmarkNames() {
		prog, err := lbic.BuildBenchmark(n)
		if err != nil {
			fail(err)
		}
		m, err := emu.New(prog)
		if err != nil {
			fail(err)
		}
		tr := tracecache.Record(m, insts)
		for _, pc := range orgs {
			cells = append(cells, cell{name: n, port: pc, tr: tr})
		}
	}

	fmt.Printf("%d cells per rep\n%-4s %10s %10s %8s\n", len(cells), "rep", "old_s", "new_s", "new/old")
	var olds, news, ratios []float64
	for rep := 1; rep <= reps; rep++ {
		var tOld, tNew time.Duration
		for i, c := range cells {
			var sOld, sNew string
			var dOld, dNew time.Duration
			var errOld, errNew error
			if (i+rep)%2 == 0 {
				sOld, dOld, errOld = runOld(c)
				sNew, dNew, errNew = runNew(c)
			} else {
				sNew, dNew, errNew = runNew(c)
				sOld, dOld, errOld = runOld(c)
			}
			if errOld != nil || errNew != nil {
				fail(fmt.Errorf("cell %s/%s: old: %v, new: %v", c.name, c.port.Key(), errOld, errNew))
			}
			if sOld != sNew {
				fail(fmt.Errorf("cell %s/%s: Stats differ\nold: %s\nnew: %s", c.name, c.port.Key(), sOld, sNew))
			}
			tOld += dOld
			tNew += dNew
		}
		r := float64(tNew) / float64(tOld)
		olds = append(olds, tOld.Seconds())
		news = append(news, tNew.Seconds())
		ratios = append(ratios, r)
		fmt.Printf("%-4d %10.3f %10.3f %8.3f\n", rep, tOld.Seconds(), tNew.Seconds(), r)
	}
	fmt.Printf("%-4s %10.3f %10.3f %8.3f\n", "med", median(olds), median(news), median(ratios))
	fmt.Printf("Stats identical on all %d cells\n", len(cells))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "coreab:", err)
	os.Exit(1)
}

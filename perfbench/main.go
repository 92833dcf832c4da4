// Command perfbench is the repository's benchmark. It drives the simulator
// only through its public entry points — lbic.Simulate*, experiments.Sweep,
// the lbicd handler via the client package, and the exported functions of
// the model packages — over three workloads:
//
//	paper-sweep  the paper's evaluation as `lbictables -all` runs it
//	cold-cells   seeded cells that share nothing (live emulator, generators, oracle)
//	served-mix   an in-process lbicd driven by closed-loop client callers
//
// With -trace 0 it measures the end-to-end metrics with tracing off; with
// -trace 1 it runs the traced run instead, which times calls into each layer
// from outside and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it with run.sh; see README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts operations and failed correctness checks. Every failed check,
// ERR cell or non-2xx response is one failed operation.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// fail records one failed operation and says why on standard error.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// workload is one named input set. setup builds programs, generates the
// seeded inputs and starts servers; it runs before the timed region and is
// repeated to measure setup_s. beforeRound runs outside the timed region
// before each round (served-mix starts each round's server there). round
// runs one round of operations inside the timed region. check verifies
// outputs after the timed region.
type workload interface {
	setup(seed uint64) error
	beforeRound() error
	round(s *roundSample) error
	check() (tally, error)
	// digest is a hash of the simulated results; equal across runs of the
	// same seed, and unchanged by any change that only alters speed.
	digest() string
	close()
	// cells lists the cells the traced run builds and times by layer.
	cells() ([]cellSpec, error)
	// traceInsts is the budget of the traced run's experiments sweep.
	traceInsts() uint64
}

var workloads = map[string]func() workload{
	"paper-sweep": func() workload { return &paperSweep{} },
	"cold-cells":  func() workload { return &coldCells{} },
	"served-mix":  func() workload { return &servedMix{} },
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Int("seconds", 30, "length of the timed region")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench-spans", "directory for the traced run's span exports")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	printHost(*name, *seed)

	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(mk, *name, *seed, *out)
	} else {
		res, err = timedRun(mk, *name, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printHost records the host fingerprint beside every result set.
func printHost(name string, seed uint64) {
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), name, seed)
}

// cpuModel reads the CPU model name from the kernel; "unknown" elsewhere.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// inFlight is the bound on concurrently running cells or open connections.
func inFlight() int { return runtime.NumCPU() }

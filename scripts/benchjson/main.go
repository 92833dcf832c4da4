// Command benchjson converts `go test -bench` output piped to stdin into a
// stable JSON document suitable for checking in and diffing across PRs
// (see BENCH_PR4.json and the `make bench` target).
//
// Input lines are passed through to stdout unchanged, so the tool can sit at
// the end of a pipeline without hiding benchmark progress. Lines that are
// not benchmark results (logs, pass/fail summaries) are ignored. A benchmark
// reported more than once (go test -count N) is recorded as its median-ns/op
// sample, with the number of samples in "runs".
//
// With -diff it becomes the perf regression gate instead of a converter:
//
//	benchjson -diff BENCH_PR4.json -against BENCH_PR5.json \
//	          -threshold 10 -allowlist BENCH_ALLOWLIST.json
//
// Every benchmark present in both files is compared on ns/op; a slowdown
// past the threshold fails the run (exit 1) unless an allowlist entry
// acknowledges it with a reason and a per-entry cap. Under GitHub Actions
// the findings are emitted as workflow annotations.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Pkg        string  `json:"pkg"`
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	MBPerS     float64 `json:"mb_per_s,omitempty"`
	BPerOp     int64   `json:"b_per_op"`
	AllocsQuot int64   `json:"allocs_per_op"`
	// Runs is the number of samples the result is the median of, when more
	// than one.
	Runs   int `json:"runs,omitempty"`
	hasMem bool
}

// Doc is the checked-in JSON shape.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout JSON is suppressed; raw input always echoes)")
	diffOld := flag.String("diff", "", "regression-gate mode: baseline BENCH_*.json to diff from")
	diffNew := flag.String("against", "", "candidate BENCH_*.json to diff against the -diff baseline")
	threshold := flag.Float64("threshold", 10, "ns/op slowdown percentage that fails the gate")
	allowlist := flag.String("allowlist", "", "JSON file of acknowledged regressions (see BENCH_ALLOWLIST.json)")
	flag.Parse()

	if *diffOld != "" || *diffNew != "" {
		if *diffOld == "" || *diffNew == "" {
			fatal(fmt.Errorf("-diff and -against must both be set"))
		}
		if err := diff(*diffOld, *diffNew, *threshold, *allowlist); err != nil {
			fatal(err)
		}
		return
	}

	var doc Doc
	samples := map[string][]Result{}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Pkg = pkg
				key := r.Pkg + " " + r.Name
				if samples[key] == nil {
					doc.Benchmarks = append(doc.Benchmarks, r)
				}
				samples[key] = append(samples[key], r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	for i, r := range doc.Benchmarks {
		doc.Benchmarks[i] = median(samples[r.Pkg+" "+r.Name])
	}

	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" || *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), *out)
}

// median returns the sample with the median ns/op (the lower middle one for
// an even count), carrying the number of samples when there is more than one.
func median(rs []Result) Result {
	s := slices.Clone(rs)
	slices.SortStableFunc(s, func(a, b Result) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	m := s[(len(s)-1)/2]
	if len(s) > 1 {
		m.Runs = len(s)
	}
	return m
}

// parseBench parses a standard benchmark result line:
//
//	BenchmarkName/sub-8   123   456 ns/op   7.8 MB/s   9 B/op   0 allocs/op
func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	r := Result{Name: f[0]}
	// The trailing "-N" is GOMAXPROCS, appended by the testing package.
	if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = n
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BPerOp = int64(v)
			r.hasMem = true
		case "allocs/op":
			r.AllocsQuot = int64(v)
			r.hasMem = true
		}
	}
	if r.NsPerOp == 0 && !r.hasMem {
		return Result{}, false
	}
	return r, true
}

// Allowlist is the checked-in set of acknowledged regressions. Entries match
// by pkg and name (path.Match globs); the first match wins, so put specific
// entries before broad ones.
type Allowlist struct {
	// Comment is free-form documentation; the tool ignores it.
	Comment string       `json:"comment,omitempty"`
	Entries []AllowEntry `json:"entries"`
}

// AllowEntry acknowledges one (pattern of) regression.
type AllowEntry struct {
	Pkg  string `json:"pkg"`
	Name string `json:"name"`
	// Against, when set, limits the entry to diffs whose candidate snapshot
	// (-against) has this file name, so an acknowledgment of one snapshot's
	// drift does not carry over to later comparisons.
	Against string `json:"against,omitempty"`
	// MaxRegressionPct replaces the global threshold for matching benchmarks:
	// a slowdown up to this percentage is allowed (annotated, not fatal).
	MaxRegressionPct float64 `json:"max_regression_pct"`
	// Reason documents why the regression is acknowledged. Required: an
	// allowlist entry without a reason is a gate hole, not an acknowledgment.
	Reason string `json:"reason"`
}

// matchPattern is path.Match plus a bare "*" that matches anything —
// sub-benchmark names contain "/", which path.Match's "*" will not cross.
func matchPattern(pattern, s string) bool {
	if pattern == "*" {
		return true
	}
	ok, err := path.Match(pattern, s)
	return err == nil && ok
}

func (a *Allowlist) match(against, pkg, name string) *AllowEntry {
	for i := range a.Entries {
		e := &a.Entries[i]
		if e.Against != "" && e.Against != against {
			continue
		}
		if matchPattern(e.Pkg, pkg) && matchPattern(e.Name, name) {
			return e
		}
	}
	return nil
}

func loadDoc(p string) (map[string]Result, error) {
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", p, err)
	}
	m := make(map[string]Result, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		m[b.Pkg+" "+b.Name] = b
	}
	return m, nil
}

// annotate emits a GitHub Actions workflow annotation when running under CI,
// a plain stderr line otherwise.
func annotate(level, msg string) {
	if os.Getenv("GITHUB_ACTIONS") == "true" {
		fmt.Printf("::%s ::%s\n", level, msg)
		return
	}
	fmt.Fprintln(os.Stderr, strings.ToUpper(level)+": "+msg)
}

// diff compares ns/op between two checked-in benchmark documents and fails
// on regressions past the threshold that no allowlist entry acknowledges.
func diff(oldPath, newPath string, threshold float64, allowPath string) error {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return err
	}
	if _, err := loadDoc(newPath); err != nil {
		return err
	}
	var allow Allowlist
	if allowPath != "" {
		raw, err := os.ReadFile(allowPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &allow); err != nil {
			return fmt.Errorf("parsing %s: %w", allowPath, err)
		}
		for _, e := range allow.Entries {
			if strings.TrimSpace(e.Reason) == "" {
				return fmt.Errorf("%s: entry %s %s has no reason; acknowledged regressions must say why", allowPath, e.Pkg, e.Name)
			}
		}
	}

	// Stable output order: the candidate document's order.
	raw, _ := os.ReadFile(newPath)
	var ordered Doc
	_ = json.Unmarshal(raw, &ordered)

	fmt.Printf("benchjson: %s -> %s (threshold %.0f%%)\n", oldPath, newPath, threshold)
	failures := 0
	for _, nb := range ordered.Benchmarks {
		key := nb.Pkg + " " + nb.Name
		ob, ok := oldDoc[key]
		if !ok {
			fmt.Printf("  new      %-60s %12.0f ns/op\n", key, nb.NsPerOp)
			continue
		}
		delete(oldDoc, key)
		if ob.NsPerOp <= 0 {
			continue
		}
		pct := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		switch {
		case pct <= threshold:
			fmt.Printf("  ok       %-60s %+7.1f%%\n", key, pct)
		default:
			if e := allow.match(filepath.Base(newPath), nb.Pkg, nb.Name); e != nil && pct <= e.MaxRegressionPct {
				fmt.Printf("  allowed  %-60s %+7.1f%%  (%s)\n", key, pct, e.Reason)
				annotate("warning", fmt.Sprintf("%s: %+.1f%% ns/op, allowed: %s", key, pct, e.Reason))
				continue
			}
			failures++
			fmt.Printf("  FAIL     %-60s %+7.1f%%\n", key, pct)
			annotate("error", fmt.Sprintf("%s regressed %+.1f%% ns/op (threshold %.0f%%) — fix it or acknowledge it in the allowlist with a reason", key, pct, threshold))
		}
	}
	for key := range oldDoc {
		fmt.Printf("  missing  %-60s (present in %s only)\n", key, oldPath)
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark regression(s) past %.0f%%", failures, threshold)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

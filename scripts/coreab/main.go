// Command coreab times the timing core (internal/cpu) of the working tree
// against the one at a git revision, interleaved in one process:
//
//	go run ./scripts/coreab -rev HEAD~1        (or: make coreab REV=HEAD~1)
//
// Separate benchmark processes on a small, shared host differ by 10–30% from
// run to run, even pinned and run concurrently. Inside one process, on a
// 2-vCPU guest, each repetition's new/old ratio stays within about 8% of the
// median of ten.
//
// coreab copies the module to a temporary directory (the checkout is left
// untouched), writes the revision's non-test internal/cpu files there as a
// second package, internal/cpuab, and runs a harness (harness/main.go) that
// replays the paper-sweep traced cell set — the 10 kernels under true-4,
// repl-4, bank-4, lbic-4x2 and coded-4x1, recorded once at 50 000
// instructions — through both cores cell by cell, alternating which goes
// first. Each run is timed by the CPU time of its own OS thread
// (RUSAGE_THREAD, so Linux only). It prints every repetition's totals and
// new/old ratio and their medians, and fails if any cell's Stats differ
// between the two cores. A full run takes 10–15 s after the first build.
//
// `make coreab-smoke` (part of `make check`) runs one repetition against
// HEAD, so a change to the APIs the harness uses fails there.
//
// Limit: the revision may differ from the working tree only inside
// internal/cpu. Everything else the cores call — arbiters, the cache
// hierarchy, trace decoding — is the working tree's for both, and a
// revision whose internal/cpu needs other packages' older APIs does not
// build.
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

//go:embed harness/main.go
var harness []byte

// exportArbiter lets the harness build each organization's arbiter the way
// the root package does.
const exportArbiter = `package lbic

import "lbic/internal/ports"

// CoreABArbiter exposes buildArbiter to the coreab harness.
func CoreABArbiter(p PortConfig, lineSize int) (ports.Arbiter, error) { return buildArbiter(p, lineSize) }
`

var pkgClause = regexp.MustCompile(`(?m)^package cpu$`)

func main() {
	rev := flag.String("rev", "HEAD", "git revision whose internal/cpu is the baseline")
	reps := flag.Int("reps", 10, "repetitions of the whole cell set")
	flag.Parse()
	if err := run(*rev, *reps); err != nil {
		fmt.Fprintln(os.Stderr, "coreab:", err)
		os.Exit(1)
	}
}

func run(rev string, reps int) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	root = strings.TrimSpace(root)
	tmp, err := os.MkdirTemp("", "coreab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// The working tree as it is: tracked and untracked files, minus ignored
	// ones and tracked files deleted locally.
	files, err := git(root, "ls-files", "--cached", "--others", "--exclude-standard")
	if err != nil {
		return err
	}
	for _, f := range strings.Split(strings.TrimSpace(files), "\n") {
		if err := copyFile(filepath.Join(root, f), filepath.Join(tmp, f)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}

	names, err := git(root, "ls-tree", "--name-only", rev, "internal/cpu/")
	if err != nil {
		return err
	}
	n := 0
	for _, f := range strings.Fields(names) {
		if !strings.HasSuffix(f, ".go") || strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := git(root, "show", rev+":"+f)
		if err != nil {
			return err
		}
		src = pkgClause.ReplaceAllString(src, "package cpuab")
		if err := write(filepath.Join(tmp, "internal/cpuab", filepath.Base(f)), src); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no internal/cpu Go files at %s", rev)
	}
	if err := write(filepath.Join(tmp, "zz_coreab_export.go"), exportArbiter); err != nil {
		return err
	}
	if err := write(filepath.Join(tmp, "coreabrun", "main.go"), string(harness)); err != nil {
		return err
	}

	fmt.Printf("coreab: old = internal/cpu at %s, new = working tree; %d reps\n", rev, reps)
	// -trimpath keeps the temporary directory out of the build cache keys,
	// so packages unchanged since the last run are not recompiled.
	cmd := exec.Command("go", "run", "-trimpath", "coreabrun/main.go", fmt.Sprint(reps))
	cmd.Dir = tmp
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}

func write(path, data string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(data), 0o644)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

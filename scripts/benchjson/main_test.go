package main

import "testing"

func TestMedianKeepsMiddleSample(t *testing.T) {
	rs := []Result{{NsPerOp: 30, Iterations: 3}, {NsPerOp: 10, Iterations: 1}, {NsPerOp: 20, Iterations: 2}, {NsPerOp: 40, Iterations: 4}}
	m := median(rs)
	if m.NsPerOp != 20 || m.Iterations != 2 || m.Runs != 4 {
		t.Fatalf("median of four = %+v, want the 20 ns/op sample with runs 4", m)
	}
	if one := median(rs[:1]); one.Runs != 0 || one.NsPerOp != 30 {
		t.Fatalf("median of one = %+v, want the sample itself without runs", one)
	}
}

func TestAllowEntryAgainstScopesToOneSnapshot(t *testing.T) {
	a := Allowlist{Entries: []AllowEntry{
		{Pkg: "lbic", Name: "BenchmarkX", Against: "BENCH_PR13.json", MaxRegressionPct: 40, Reason: "drift"},
		{Pkg: "lbic", Name: "BenchmarkX", MaxRegressionPct: 20, Reason: "noise"},
	}}
	if e := a.match("BENCH_PR13.json", "lbic", "BenchmarkX"); e == nil || e.MaxRegressionPct != 40 {
		t.Fatalf("diff against BENCH_PR13.json matched %+v, want the scoped entry", e)
	}
	if e := a.match("BENCH_PR14.json", "lbic", "BenchmarkX"); e == nil || e.MaxRegressionPct != 20 {
		t.Fatalf("diff against BENCH_PR14.json matched %+v, want the standing entry", e)
	}
	if e := a.match("BENCH_PR14.json", "lbic", "BenchmarkY"); e != nil {
		t.Fatalf("unlisted benchmark matched %+v", e)
	}
}

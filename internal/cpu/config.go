// Package cpu is the cycle-level timing model of the paper's dynamic
// superscalar processor (§2.1, Table 1): out-of-order issue over a register
// update unit (RUU), a load/store queue (LSQ) with store-to-load forwarding
// and address-based memory ordering, a Table 1 functional-unit pool, and
// in-order commit. The front end is perfect — instructions arrive from the
// committed dynamic path (trace.Stream) at up to FetchWidth per cycle — and
// the data memory system is a cache.Hierarchy guarded by a ports.Arbiter,
// which is where the paper's designs differ.
package cpu

import (
	"fmt"

	"lbic/internal/isa"
)

// Config sets the processor parameters. DefaultConfig returns the paper's
// Table 1 baseline.
type Config struct {
	// FetchWidth is the maximum instructions dispatched per cycle.
	FetchWidth int
	// IssueWidth is the maximum operations issued to functional units per
	// cycle (loads and stores count for their address generation).
	IssueWidth int
	// CommitWidth is the maximum instructions retired per cycle.
	CommitWidth int
	// RUUSize is the register update unit (instruction window) capacity.
	RUUSize int
	// LSQSize is the load/store queue capacity.
	LSQSize int
	// StoreBufferSize bounds committed stores waiting to be written to the
	// cache; a full buffer stalls commit.
	StoreBufferSize int
	// FUCount gives the number of functional units per class. Every class
	// but isa.ClassNone needs at least one: an operation of a class without
	// units could never issue. Latencies are fixed by isa.LatencyOf.
	FUCount [isa.NumClasses]int
	// MemScanDepth bounds how many ready memory requests are presented to
	// the port arbiter per cycle (the LSQ scheduling window).
	MemScanDepth int
	// MaxInsts stops dispatch after this many instructions (0 = run the
	// stream to exhaustion). In-flight instructions still drain.
	MaxInsts uint64
	// MaxCycles aborts a run that exceeds this cycle count (0 = no limit);
	// it is a deadlock guard for tests.
	MaxCycles uint64
	// WatchdogCycles is the forward-progress watchdog: if no instruction
	// commits and no committed store retires for this many consecutive
	// cycles, the run aborts with a *HangError diagnosing the stuck pipeline
	// (occupancies, the oldest blocked sequence number, and the arbiter's
	// per-bank state). 0 selects DefaultWatchdogCycles; negative disables
	// the watchdog. Unlike MaxCycles it bounds stall length, not run length,
	// so it stays valid for arbitrarily long healthy runs.
	WatchdogCycles int
}

// DefaultConfig returns the Table 1 baseline: 64-wide fetch/issue/commit,
// 1024-entry RUU, 512-entry LSQ, 64 units of every functional class.
func DefaultConfig() Config {
	var fu [isa.NumClasses]int
	for c := range fu {
		fu[c] = 64
	}
	return Config{
		FetchWidth:      64,
		IssueWidth:      64,
		CommitWidth:     64,
		RUUSize:         1024,
		LSQSize:         512,
		StoreBufferSize: 64,
		FUCount:         fu,
		MemScanDepth:    64,
	}
}

// Upper bounds on the structures, checked by Validate so a hostile
// configuration is rejected before it allocates: MaxWidth bounds the
// fetch, issue and commit widths, the memory scan depth and each unit
// count; MaxWindow bounds the RUU (and so the LSQ) and the store buffer.
const (
	MaxWidth  = 1 << 12
	MaxWindow = 1 << 16
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1,
		c.FetchWidth > MaxWidth || c.IssueWidth > MaxWidth || c.CommitWidth > MaxWidth:
		return fmt.Errorf("cpu: widths must be positive and at most %d (fetch=%d issue=%d commit=%d)",
			MaxWidth, c.FetchWidth, c.IssueWidth, c.CommitWidth)
	case c.RUUSize < 1:
		return fmt.Errorf("cpu: RUU size %d is not positive", c.RUUSize)
	case c.RUUSize > MaxWindow:
		return fmt.Errorf("cpu: RUU size %d exceeds %d", c.RUUSize, MaxWindow)
	case c.LSQSize < 1 || c.LSQSize > c.RUUSize:
		return fmt.Errorf("cpu: LSQ size %d must be in [1,%d]", c.LSQSize, c.RUUSize)
	case c.StoreBufferSize < 1 || c.StoreBufferSize > MaxWindow:
		return fmt.Errorf("cpu: store buffer size %d is not in [1,%d]", c.StoreBufferSize, MaxWindow)
	case c.MemScanDepth < 1 || c.MemScanDepth > MaxWidth:
		return fmt.Errorf("cpu: memory scan depth %d is not in [1,%d]", c.MemScanDepth, MaxWidth)
	}
	for cl, n := range c.FUCount {
		if n < 0 {
			return fmt.Errorf("cpu: negative unit count %d for class %s", n, isa.Class(cl))
		}
		if n == 0 && isa.Class(cl) != isa.ClassNone {
			return fmt.Errorf("cpu: no %s units: its operations could never issue", isa.Class(cl))
		}
		if n > MaxWidth {
			return fmt.Errorf("cpu: unit count %d for class %s exceeds %d", n, isa.Class(cl), MaxWidth)
		}
	}
	return nil
}

// Stats aggregates a run's activity.
type Stats struct {
	Cycles     uint64
	Committed  uint64
	Dispatched uint64
	Issued     uint64

	// IssuedByClass breaks issues down by functional-unit class.
	IssuedByClass [isa.NumClasses]uint64

	Loads       uint64 // committed loads
	Stores      uint64 // committed stores
	Forwards    uint64 // loads serviced by the LSQ/store buffer, zero latency
	PortGrants  uint64 // requests granted a cache port
	PortBlocked uint64 // granted requests rejected by the hierarchy (MSHR full)

	CommitStallStoreBuf uint64 // commit-halting cycles from a full store buffer
	DispatchStallRUU    uint64
	DispatchStallLSQ    uint64
	OrderingStalls      uint64 // load-cycles spent waiting on unknown store addresses
	ForwardWaits        uint64 // loads that waited on an unready matching store

	// StallCycles is the CPI stall stack: every simulated cycle attributed
	// to exactly one StallCause, so the entries sum to Cycles. See
	// StallCause for the attribution rules.
	StallCycles [NumStallCauses]uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

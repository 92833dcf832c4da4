package cache

import (
	"testing"
	"testing/quick"
)

func dm32k() Geometry { return Geometry{Size: 32 << 10, LineSize: 32, Assoc: 1} }

// mustArray builds an array from a geometry known to be valid, failing the
// test otherwise (NewArray no longer has a panicking variant).
func mustArray(t *testing.T, g Geometry) *Array {
	t.Helper()
	a, err := NewArray(g)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	good := []Geometry{
		dm32k(),
		{Size: 512 << 10, LineSize: 64, Assoc: 4},
		{Size: 1 << 10, LineSize: 16, Assoc: 2},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
	bad := []Geometry{
		{Size: 0, LineSize: 32, Assoc: 1},
		{Size: 32 << 10, LineSize: 31, Assoc: 1},
		{Size: 32 << 10, LineSize: 32, Assoc: 0},
		{Size: 100, LineSize: 32, Assoc: 1},
		{Size: 96 * 32, LineSize: 32, Assoc: 1}, // 96 sets: not a power of two
		// LineSize*Assoc overflows int: rejected, not a divide by zero.
		{Size: 1 << 20, LineSize: 1 << 62, Assoc: 4},
		{Size: 1 << 20, LineSize: 32, Assoc: 1 << 61},
		{Size: MaxLines * 2 * 32, LineSize: 32, Assoc: 1},
		{Size: 64 << 10, LineSize: MaxLineSize * 2, Assoc: 1},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", g)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	g := dm32k()
	if g.Sets() != 1024 {
		t.Errorf("Sets() = %d, want 1024", g.Sets())
	}
	if g.LineBits() != 5 {
		t.Errorf("LineBits() = %d, want 5", g.LineBits())
	}
	if g.LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", g.LineAddr(0x12345))
	}
}

func TestArrayHitMiss(t *testing.T) {
	a := mustArray(t, dm32k())
	if a.Access(0x1000, false) {
		t.Error("cold access should miss")
	}
	a.Install(0x1000, false)
	if !a.Access(0x1000, false) {
		t.Error("installed line should hit")
	}
	if !a.Access(0x101f, false) {
		t.Error("same line, different offset should hit")
	}
	if a.Access(0x1020, false) {
		t.Error("next line should miss")
	}
}

func TestArrayDirectMappedConflict(t *testing.T) {
	a := mustArray(t, dm32k())
	// Two addresses 32KB apart map to the same set in a direct-mapped 32KB.
	a.Install(0x10000, false)
	victim, dirty, evicted := a.Install(0x10000+32<<10, false)
	if !evicted {
		t.Fatal("conflicting install should evict")
	}
	if dirty {
		t.Error("clean victim reported dirty")
	}
	if victim != 0x10000 {
		t.Errorf("victim = %#x, want 0x10000", victim)
	}
	if a.Probe(0x10000) {
		t.Error("evicted line still present")
	}
}

func TestArrayDirtyWriteback(t *testing.T) {
	a := mustArray(t, dm32k())
	a.Install(0x2000, false)
	a.Access(0x2000, true) // dirty it
	if !a.Dirty(0x2000) {
		t.Fatal("write hit should mark dirty")
	}
	_, dirty, evicted := a.Install(0x2000+32<<10, false)
	if !evicted || !dirty {
		t.Error("dirty victim not reported")
	}
	if a.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", a.Writebacks)
	}
}

func TestArrayLRU(t *testing.T) {
	g := Geometry{Size: 4 * 32, LineSize: 32, Assoc: 4} // one set, 4 ways
	a := mustArray(t, g)
	addrs := []uint64{0x1000, 0x2000, 0x3000, 0x4000}
	for _, ad := range addrs {
		a.Install(ad, false)
	}
	// Touch all but 0x2000; it becomes LRU.
	a.Access(0x1000, false)
	a.Access(0x3000, false)
	a.Access(0x4000, false)
	victim, _, evicted := a.Install(0x5000, false)
	if !evicted || victim != 0x2000 {
		t.Errorf("victim = %#x (evicted=%v), want 0x2000", victim, evicted)
	}
}

func TestArrayInstallExisting(t *testing.T) {
	a := mustArray(t, dm32k())
	a.Install(0x3000, false)
	_, _, evicted := a.Install(0x3000, true)
	if evicted {
		t.Error("reinstalling a present line must not evict")
	}
	if !a.Dirty(0x3000) {
		t.Error("reinstall with dirty should dirty the line")
	}
	if a.Lines() != 1 {
		t.Errorf("Lines() = %d, want 1", a.Lines())
	}
}

func TestArrayMissRateAndReset(t *testing.T) {
	a := mustArray(t, dm32k())
	a.Access(0x1000, false) // miss
	a.Install(0x1000, false)
	a.Access(0x1000, false) // hit
	if a.MissRate() != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", a.MissRate())
	}
	a.Reset()
	if a.Accesses != 0 || a.Lines() != 0 || a.MissRate() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestNewArrayRejectsBadGeometry(t *testing.T) {
	if _, err := NewArray(Geometry{Size: 3, LineSize: 2, Assoc: 1}); err == nil {
		t.Error("expected geometry error")
	}
}

// Property: after installing any set of lines into a large-enough cache,
// every installed line probes as present, and reconstruct round-trips the
// victim addresses (victim is always line-aligned and maps to the same set).
func TestArrayVictimSameSetQuick(t *testing.T) {
	g := Geometry{Size: 8 << 10, LineSize: 32, Assoc: 2}
	f := func(addrs []uint32) bool {
		a := mustArray(t, g)
		for _, raw := range addrs {
			addr := uint64(raw)
			victim, _, evicted := a.Install(addr, false)
			if !a.Probe(addr) {
				return false
			}
			if evicted {
				if victim%uint64(g.LineSize) != 0 {
					return false
				}
				// Victim must map to the same set as the new line.
				sets := uint64(g.Sets())
				if (victim>>5)%sets != (addr>>5)%sets {
					return false
				}
				if a.Probe(victim) && g.LineAddr(victim) != g.LineAddr(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: an access that hits never changes the resident line count, and a
// miss never increases it (allocation only happens via Install).
func TestArrayAccessPreservesContentsQuick(t *testing.T) {
	g := Geometry{Size: 4 << 10, LineSize: 32, Assoc: 4}
	f := func(install []uint16, probe []uint16) bool {
		a := mustArray(t, g)
		for _, p := range install {
			a.Install(uint64(p)*8, false)
		}
		lines := a.Lines()
		for _, p := range probe {
			a.Access(uint64(p)*8, p%2 == 0)
			if a.Lines() != lines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the number of resident lines never exceeds capacity.
func TestArrayCapacityQuick(t *testing.T) {
	g := Geometry{Size: 2 << 10, LineSize: 32, Assoc: 2}
	capacity := g.Size / g.LineSize
	f := func(addrs []uint32) bool {
		a := mustArray(t, g)
		for _, raw := range addrs {
			a.Install(uint64(raw), false)
			if a.Lines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

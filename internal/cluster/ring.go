// Package cluster turns lbicd into a fault-tolerant sharded sweep plane: a
// coordinator consistent-hashes stable cell keys onto worker processes that
// each serve single cells over the existing lbic-sim-request/v1 API. The
// robustness machinery lives here — worker membership by heartbeat with
// eviction and readmission, per-cell retry with backoff onto a different
// worker, hedged duplicate dispatch for stragglers, and a chaos layer for
// drilling all of it. Finished cells are kept by the serving process's cell
// store (internal/cellstore), not here. The coordinator's server falls back
// to in-process execution when no worker is reachable, so a cluster of zero
// workers degrades to exactly the single-process lbicd it grew out of.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringVnodes is how many virtual nodes each member contributes. 64 keeps
// the load imbalance across a handful of workers in the few-percent range
// while membership changes stay cheap (a rebuild is a sort of N*64 points).
const ringVnodes = 64

// Ring is a consistent-hash ring over member names (worker addresses). A
// key's preference sequence is the ring walk clockwise from the key's hash:
// the first member is its home, the rest are the deterministic fallback
// order. Removing a member only remaps the keys it owned — every other
// key's home is untouched — which is exactly the re-sharding guarantee the
// coordinator leans on when a worker is evicted mid-sweep.
type Ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct members, in insertion order
}

type ringPoint struct {
	hash   uint64
	member int // index into names
}

// NewRing builds a ring over the given members. Order does not matter;
// duplicates are ignored.
func NewRing(members []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		idx := len(r.names)
		r.names = append(r.names, m)
		for v := 0; v < ringVnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", m, v)
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), member: idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member names in insertion order.
func (r *Ring) Members() []string { return append([]string(nil), r.names...) }

// Len returns the number of distinct members.
func (r *Ring) Len() int { return len(r.names) }

// Sequence returns up to n distinct members in the key's preference order:
// the walk clockwise around the ring from the key's hash. Deterministic for
// a given membership; n <= 0 or n > Len() returns all members.
func (r *Ring) Sequence(key string, n int) []string {
	if len(r.names) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.names) {
		n = len(r.names)
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	target := mix64(h.Sum64())
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= target })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.member] {
			taken[p.member] = true
			out = append(out, r.names[p.member])
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer. FNV over short, similar strings
// ("addr#0", "addr#1", ...) leaves correlated high bits that bunch a
// member's vnodes together on the ring; the finalizer spreads them so the
// per-member load stays near 1/N.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owner returns the key's home member ("" for an empty ring).
func (r *Ring) Owner(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

package gossip

import "sort"

// Ring is a consistent-hash ring over the shard set, keyed on the
// (advType, attr, value) triples the discovery index is queried by.
// Each member contributes vnodes points so load spreads evenly; the
// ring is rebuilt deterministically from the sorted member list, so
// every peer that knows the same membership computes the same
// ownership map — rebalancing on membership change is a pure function
// of the new member set, no coordination required.
//
// A Ring is immutable after construction; holders swap in a new ring
// on membership change (see p2p.ShardRouter).
type Ring struct {
	vnodes  int
	members []string
	points  []ringPoint
}

// ringPoint is one vnode position: a hash and the index of the member
// that owns it.
type ringPoint struct {
	hash   uint64
	member int32
}

// DefaultVnodes is the per-member vnode count; 64 keeps the max/mean
// ownership skew under ~20% for small shard counts.
const DefaultVnodes = 64

// NewRing builds a ring over the members (duplicates ignored); vnodes
// <= 0 selects DefaultVnodes.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	// Dedupe in place: duplicate members would double their ownership.
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	ms = out
	r := &Ring{vnodes: vnodes, members: ms}
	r.points = make([]ringPoint, 0, len(ms)*vnodes)
	for i, m := range ms {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(m, v), member: int32(i)})
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

// Members returns the sorted member list backing the ring. Callers
// must not mutate it.
func (r *Ring) Members() []string { return r.members }

// FNV-1a constants, inlined so the hot hash paths never allocate a
// hash.Hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashString folds s into an FNV-1a state.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fmix64 is the murmur3 finalizer. FNV-1a alone has poor avalanche
// for small suffix differences — vnode points of one member would sit
// in an arithmetic progression and wreck the ring's balance — so every
// ring position gets a final mix.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// HashTriple hashes a discovery index triple onto the ring's key
// space. NUL separators keep ("a","bc") and ("ab","c") distinct.
func HashTriple(advType, attr, value string) uint64 { //lint:hotpath
	h := uint64(fnvOffset)
	h = hashString(h, advType)
	h *= fnvPrime
	h = hashString(h, attr)
	h *= fnvPrime
	h = hashString(h, value)
	return fmix64(h)
}

// vnodeHash positions vnode v of member m on the ring.
func vnodeHash(m string, v int) uint64 {
	h := uint64(fnvOffset)
	h = hashString(h, m)
	// Fold the vnode index in byte by byte.
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return fmix64(h)
}

// Owner returns the member owning the triple ("" on an empty ring).
func (r *Ring) Owner(advType, attr, value string) string { //lint:hotpath
	if len(r.points) == 0 {
		return ""
	}
	i := r.search(HashTriple(advType, attr, value))
	return r.members[r.points[i].member]
}

// AppendOwners appends the k distinct members owning the triple —
// the first k unique members clockwise from the triple's point — onto
// dst and returns the extended slice. k is clamped to the member
// count.
func (r *Ring) AppendOwners(dst []string, advType, attr, value string, k int) []string { //lint:hotpath
	if len(r.points) == 0 || k <= 0 {
		return dst
	}
	if k > len(r.members) {
		k = len(r.members)
	}
	start := len(dst)
	i := r.search(HashTriple(advType, attr, value))
	for n := 0; n < len(r.points) && len(dst)-start < k; n++ {
		m := r.members[r.points[(i+n)%len(r.points)].member]
		dup := false
		for _, d := range dst[start:] {
			if d == m {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, m)
		}
	}
	return dst
}

// search returns the index of the first point at or clockwise-after h.
func (r *Ring) search(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

package transport

import (
	"sort"

	"tlb/internal/units"
)

// This file holds the two sorted containers that replaced the maps the
// SACK machinery originally used. Go maps iterate in randomized order,
// which simlint's maporder rule forbids in simulation packages: even
// though the original sweeps happened to be order-free, every future
// edit risked making the byte stream of a run depend on map iteration
// order. The containers below iterate in ascending sequence order by
// construction, so determinism is structural rather than reviewed-in.
// Segment counts are bounded by the congestion window (tens of
// entries), so O(n) inserts are cheaper in practice than map hashing.

// segSet is a sorted set of segment start offsets — the sender's SACK
// scoreboard.
type segSet struct {
	xs []units.Bytes // ascending
}

// search returns the index of the first element >= x.
func (s *segSet) search(x units.Bytes) int {
	return sort.Search(len(s.xs), func(i int) bool { return s.xs[i] >= x })
}

// Add inserts x, keeping the set sorted; duplicates are ignored.
func (s *segSet) Add(x units.Bytes) {
	i := s.search(x)
	if i < len(s.xs) && s.xs[i] == x {
		return
	}
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = x
}

// Has reports membership.
func (s *segSet) Has(x units.Bytes) bool {
	i := s.search(x)
	return i < len(s.xs) && s.xs[i] == x
}

// CountAbove returns how many elements are strictly greater than x.
func (s *segSet) CountAbove(x units.Bytes) int {
	return len(s.xs) - s.search(x+1)
}

// DropBelow removes every element strictly less than x.
func (s *segSet) DropBelow(x units.Bytes) {
	i := s.search(x)
	if i > 0 {
		s.xs = s.xs[:copy(s.xs, s.xs[i:])]
	}
}

// Reset empties the set, retaining capacity.
func (s *segSet) Reset() { s.xs = s.xs[:0] }

// Len returns the number of elements.
func (s *segSet) Len() int { return len(s.xs) }

// oooSeg is one buffered out-of-order segment [Start, Start+Len).
type oooSeg struct {
	Start, Len units.Bytes
}

// oooBuf is the receiver's out-of-order reassembly buffer: segments
// sorted by start offset.
type oooBuf struct {
	segs []oooSeg // ascending by Start
}

// search returns the index of the first segment with Start >= x.
func (b *oooBuf) search(x units.Bytes) int {
	return sort.Search(len(b.segs), func(i int) bool { return b.segs[i].Start >= x })
}

// Insert adds (or replaces, on equal start) a segment.
func (b *oooBuf) Insert(start, length units.Bytes) {
	i := b.search(start)
	if i < len(b.segs) && b.segs[i].Start == start {
		b.segs[i].Len = length
		return
	}
	b.segs = append(b.segs, oooSeg{})
	copy(b.segs[i+1:], b.segs[i:])
	b.segs[i] = oooSeg{Start: start, Len: length}
}

// At returns the length of the segment starting exactly at start.
func (b *oooBuf) At(start units.Bytes) (units.Bytes, bool) {
	i := b.search(start)
	if i < len(b.segs) && b.segs[i].Start == start {
		return b.segs[i].Len, true
	}
	return 0, false
}

// Take removes and returns the length of the segment starting exactly
// at start.
func (b *oooBuf) Take(start units.Bytes) (units.Bytes, bool) {
	i := b.search(start)
	if i >= len(b.segs) || b.segs[i].Start != start {
		return 0, false
	}
	l := b.segs[i].Len
	b.segs = append(b.segs[:i], b.segs[i+1:]...)
	return l, true
}

// EndingAt returns the segment whose end (Start+Len) equals x — the
// predecessor a coalescing sweep extends a SACK block over. With
// MSS-partitioned non-overlapping segments this is exactly the segment
// immediately below x.
func (b *oooBuf) EndingAt(x units.Bytes) (oooSeg, bool) {
	i := b.search(x)
	if i == 0 {
		return oooSeg{}, false
	}
	if s := b.segs[i-1]; s.Start+s.Len == x {
		return s, true
	}
	return oooSeg{}, false
}

// Empty reports whether nothing is buffered.
func (b *oooBuf) Empty() bool { return len(b.segs) == 0 }

// Segs returns the buffered segments in ascending start order. The
// slice aliases the buffer's storage; callers must not mutate it.
func (b *oooBuf) Segs() []oooSeg { return b.segs }

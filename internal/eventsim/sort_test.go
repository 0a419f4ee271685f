package eventsim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refSortKeys is the stdlib stable sort sortKeys replaces, kept as its
// reference the way refheap_test.go keeps the old heap.
func refSortKeys(a []sortKey) {
	slices.SortStableFunc(a, func(x, y sortKey) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
}

// slotKeys returns n keys shaped like one reached slot: at uniform
// inside a single 512 ns slot and distinct nodes. Every fourth key
// repeats an earlier one's (at, seq), so stability is checked too.
func slotKeys(n int, seed uint64) []sortKey {
	rng := NewRNG(seed)
	base := Time(1000) << slotShift
	nodes := make([]event, n)
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i] = sortKey{at: base + Time(rng.Intn(1<<slotShift)), seq: rng.Uint64(), e: &nodes[i]}
		if i%4 == 3 {
			k := keys[rng.Intn(i)]
			keys[i].at, keys[i].seq = k.at, k.seq
		}
	}
	return keys
}

// TestSortKeysMatchesStableSort checks sortKeys against the reference
// on both paths (insertion sort up to sortRun, scatter and merge above).
func TestSortKeysMatchesStableSort(t *testing.T) {
	for _, n := range []int{1, 2, 12, sortRun, sortRun + 1, 123, 1000} {
		for seed := uint64(1); seed <= 20; seed++ {
			keys := slotKeys(n, seed)
			want := slices.Clone(keys)
			refSortKeys(want)
			if got := sortKeys(keys, make([]sortKey, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: sortKeys order differs from the stable sort", n, seed)
			}
		}
	}
}

// BenchmarkSortSlot times sortKeys against the stdlib stable sort on
// slots the size of the two fabrics': a leaf-spine slot holds 11.5
// events on average, a k=16 fat-tree's 123. Each iteration sorts a
// fresh copy of the next of 256 distinct unsorted slots, so the branch
// predictor cannot learn one input's comparisons.
func BenchmarkSortSlot(b *testing.B) {
	for _, n := range []int{12, 123} {
		src := make([][]sortKey, 256)
		for i := range src {
			src[i] = slotKeys(n, uint64(i+1))
		}
		buf, tmp := make([]sortKey, n), make([]sortKey, n)
		b.Run(fmt.Sprintf("keys=%d/sortKeys", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src[i%len(src)])
				sortKeys(buf, tmp)
			}
		})
		b.Run(fmt.Sprintf("keys=%d/stdlib", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf, src[i%len(src)])
				refSortKeys(buf)
			}
		})
	}
}

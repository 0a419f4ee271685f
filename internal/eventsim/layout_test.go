package eventsim

import (
	"testing"
	"unsafe"
)

// TestEventNodeLayout pins the cache-line layout of the engine's event
// node. Every field — the ordering key (at, seq) the spill heap
// compares, the membership fields (where, owned, gen) and the callback
// with both words of its arg — must stay inside the first 64 bytes, so
// running a node, or comparing it in the spill, touches one cache line,
// also in a netem.Port, whose first line holds its delivery Node. The
// wheel keeps its own copy of (at, seq) and reads the node only to run
// it. A change that grows the node or pushes a field over the line must
// update this test deliberately (and justify it with make bench-pair
// B=BenchmarkEventQueue against the parent).
func TestEventNodeLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(event{}), uintptr(56); got != want {
		t.Errorf("sizeof(event) = %d, want %d", got, want)
	}
	if got := unsafe.Sizeof(Node{}); got != unsafe.Sizeof(event{}) {
		t.Errorf("sizeof(Node) = %d, want sizeof(event)", got)
	}
	var e event
	offsets := []struct {
		name      string
		off, size uintptr
		want      uintptr
	}{
		{"at", unsafe.Offsetof(e.at), unsafe.Sizeof(e.at), 0},
		{"seq", unsafe.Offsetof(e.seq), unsafe.Sizeof(e.seq), 8},
		{"where", unsafe.Offsetof(e.where), unsafe.Sizeof(e.where), 16},
		{"owned", unsafe.Offsetof(e.owned), unsafe.Sizeof(e.owned), 20},
		{"gen", unsafe.Offsetof(e.gen), unsafe.Sizeof(e.gen), 24},
		{"fn", unsafe.Offsetof(e.fn), unsafe.Sizeof(e.fn), 32},
		{"arg", unsafe.Offsetof(e.arg), unsafe.Sizeof(e.arg), 40},
	}
	for _, f := range offsets {
		if f.off != f.want {
			t.Errorf("offsetof(event.%s) = %d, want %d", f.name, f.off, f.want)
		}
		if f.off+f.size > 64 {
			t.Errorf("event.%s occupies bytes [%d, %d), past the first cache line", f.name, f.off, f.off+f.size)
		}
	}
}

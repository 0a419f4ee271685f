package netem

import (
	"testing"
	"unsafe"
)

// field is one struct field's place, for the layout pins below.
type field struct {
	name      string
	off, size uintptr
}

// checkLine fails for every field that does not lie wholly inside
// bytes [lo, hi) of its struct.
func checkLine(t *testing.T, what string, lo, hi uintptr, fields []field) {
	t.Helper()
	for _, f := range fields {
		if f.off < lo || f.off+f.size > hi {
			t.Errorf("%s field %s occupies bytes [%d, %d), outside [%d, %d)", what, f.name, f.off, f.off+f.size, lo, hi)
		}
	}
}

// TestPacketLayout pins the cache-line layout of Packet. Every field a
// switch hop touches — Flow (routing/hashing), Seq/Wire/Ack
// (forwarding and byte accounting), QueueDelay and the single-byte
// flags (admission and the ownership guards) — must stay inside the
// first 64 bytes; the queue linkage a port walks (next, serviceStart,
// the stamp with the wire size) shares the second 64 with the
// admission-stamped stats and the destination endpoint word, so walking
// a chain reads one line per packet and the delivery that pops a packet
// has loaded what the host dispatches on; the cold SACK array trails;
// and the whole struct stays at 176 bytes, the size class the allocator
// gave it at 168. Growing the packet or pushing a field over a line is a
// deliberate decision: update this test and pair BenchmarkPortTransit
// against the parent (make bench-pair B=BenchmarkPortTransit).
func TestPacketLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(Packet{}), uintptr(176); got != want {
		t.Errorf("sizeof(Packet) = %d, want %d", got, want)
	}
	var p Packet
	checkLine(t, "hot Packet", 0, 64, []field{
		{"Flow", unsafe.Offsetof(p.Flow), unsafe.Sizeof(p.Flow)},
		{"Seq", unsafe.Offsetof(p.Seq), unsafe.Sizeof(p.Seq)},
		{"Wire", unsafe.Offsetof(p.Wire), unsafe.Sizeof(p.Wire)},
		{"Ack", unsafe.Offsetof(p.Ack), unsafe.Sizeof(p.Ack)},
		{"QueueDelay", unsafe.Offsetof(p.QueueDelay), unsafe.Sizeof(p.QueueDelay)},
		{"Kind", unsafe.Offsetof(p.Kind), unsafe.Sizeof(p.Kind)},
		{"SackCount", unsafe.Offsetof(p.SackCount), unsafe.Sizeof(p.SackCount)},
		{"CE", unsafe.Offsetof(p.CE), unsafe.Sizeof(p.CE)},
		{"ECNEcho", unsafe.Offsetof(p.ECNEcho), unsafe.Sizeof(p.ECNEcho)},
		{"FIN", unsafe.Offsetof(p.FIN), unsafe.Sizeof(p.FIN)},
		{"Retransmit", unsafe.Offsetof(p.Retransmit), unsafe.Sizeof(p.Retransmit)},
		{"pooled", unsafe.Offsetof(p.pooled), unsafe.Sizeof(p.pooled)},
		{"queued", unsafe.Offsetof(p.queued), unsafe.Sizeof(p.queued)},
	})
	checkLine(t, "queue-entry Packet", 64, 128, []field{
		{"next", unsafe.Offsetof(p.next), unsafe.Sizeof(p.next)},
		{"serviceStart", unsafe.Offsetof(p.serviceStart), unsafe.Sizeof(p.serviceStart)},
		{"deliverAt", unsafe.Offsetof(p.deliverAt), unsafe.Sizeof(p.deliverAt)},
		{"stamp", unsafe.Offsetof(p.stamp), unsafe.Sizeof(p.stamp)},
		{"Payload", unsafe.Offsetof(p.Payload), unsafe.Sizeof(p.Payload)},
		{"SentAt", unsafe.Offsetof(p.SentAt), unsafe.Sizeof(p.SentAt)},
		{"MaxQueueSeen", unsafe.Offsetof(p.MaxQueueSeen), unsafe.Sizeof(p.MaxQueueSeen)},
		{"To", unsafe.Offsetof(p.To), unsafe.Sizeof(p.To)},
	})
	// The cold SACK array must stay last so it never displaces the
	// other two groups.
	if off := unsafe.Offsetof(p.SackBlocks); off+unsafe.Sizeof(p.SackBlocks) != unsafe.Sizeof(Packet{}) {
		t.Errorf("SackBlocks at offset %d is no longer the trailing field", off)
	}
}

// TestPortLayout pins the cache-line layout of Port, the object a
// packet-hop touches twice (Send at admission, portDeliver at
// delivery) on a fabric with thousands of them — so each touch starts
// cold. The delivery node must lie in the first 64 bytes, all that
// dispatch reads of it (eventsim's TestEventNodeLayout pins the node
// itself); what portDeliver reads besides must fill the second line; what Send and admit add for every packet, with down and
// idleDelay, which with lastFinish and the engine's clock are all a
// pick reads, the third; the byte counter, the counters only a backlog,
// a buffer drop, a mark or a down link writes, and the label, the
// fourth; and the struct is exactly 256 bytes, a size class that keeps
// every heap-allocated Port 64-byte aligned, so these are real line
// boundaries. Moving a field is a deliberate decision: update this test
// and pair BenchmarkPortTransit against the parent (make bench-pair
// B=BenchmarkPortTransit).
func TestPortLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms only")
	}
	if got, want := unsafe.Sizeof(Port{}), uintptr(256); got != want {
		t.Errorf("sizeof(Port) = %d, want %d", got, want)
	}
	var p Port
	if off, size := unsafe.Offsetof(p.deliver), unsafe.Sizeof(p.deliver); off != 0 || size > 64 {
		t.Errorf("Port.deliver occupies bytes [%d, %d), want it inside [0, 64)", off, off+size)
	}
	checkLine(t, "delivery-path Port", 72, 128, []field{
		{"waiting", unsafe.Offsetof(p.waiting), unsafe.Sizeof(p.waiting)},
		{"idx", unsafe.Offsetof(p.idx), unsafe.Sizeof(p.idx)},
		{"dst", unsafe.Offsetof(p.dst), unsafe.Sizeof(p.dst)},
		{"sim", unsafe.Offsetof(p.sim), unsafe.Sizeof(p.sim)},
		{"head", unsafe.Offsetof(p.head), unsafe.Sizeof(p.head)},
		{"tail", unsafe.Offsetof(p.tail), unsafe.Sizeof(p.tail)},
		{"firstWaiting", unsafe.Offsetof(p.firstWaiting), unsafe.Sizeof(p.firstWaiting)},
		{"waitingBytes", unsafe.Offsetof(p.waitingBytes), unsafe.Sizeof(p.waitingBytes)},
	})
	checkLine(t, "per-packet admission Port", 128, 192, []field{
		{"down", unsafe.Offsetof(p.down), unsafe.Sizeof(p.down)},
		{"maxLen", unsafe.Offsetof(p.maxLen), unsafe.Sizeof(p.maxLen)},
		{"link", unsafe.Offsetof(p.link), unsafe.Sizeof(p.link)},
		{"idleDelay", unsafe.Offsetof(p.idleDelay), unsafe.Sizeof(p.idleDelay)},
		{"lastFinish", unsafe.Offsetof(p.lastFinish), unsafe.Sizeof(p.lastFinish)},
		{"busyNs", unsafe.Offsetof(p.busyNs), unsafe.Sizeof(p.busyNs)},
		{"capacity", unsafe.Offsetof(p.capacity), unsafe.Sizeof(p.capacity)},
		{"ecnThreshold", unsafe.Offsetof(p.ecnThreshold), unsafe.Sizeof(p.ecnThreshold)},
		{"enqueued", unsafe.Offsetof(p.enqueued), unsafe.Sizeof(p.enqueued)},
	})
	checkLine(t, "rarely written Port", 192, 256, []field{
		{"bytesIn", unsafe.Offsetof(p.bytesIn), unsafe.Sizeof(p.bytesIn)},
		{"sumLenOnArrival", unsafe.Offsetof(p.sumLenOnArrival), unsafe.Sizeof(p.sumLenOnArrival)},
		{"dropped", unsafe.Offsetof(p.dropped), unsafe.Sizeof(p.dropped)},
		{"marked", unsafe.Offsetof(p.marked), unsafe.Sizeof(p.marked)},
		{"faultDropped", unsafe.Offsetof(p.faultDropped), unsafe.Sizeof(p.faultDropped)},
		{"label", unsafe.Offsetof(p.label), unsafe.Sizeof(p.label)},
	})
}

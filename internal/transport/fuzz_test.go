package transport

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// FuzzReceiverReassembly drives the receiver with segments in an
// arbitrary (fuzzer-chosen) arrival order, with arbitrary duplication,
// and asserts the reassembly invariants that make the delivered byte
// stream identical to in-order delivery:
//
//   - every cumulative ACK is non-decreasing, segment-aligned and never
//     beyond the flow size (no byte is delivered twice or out of order);
//   - once every segment has arrived at least once, rcvNxt equals the
//     flow size exactly and the out-of-order buffer has drained.
//
// The first input byte picks the segment count; the rest choose which
// segment arrives next (mod the count, so duplicates are frequent).
func FuzzReceiverReassembly(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3, 4})          // in order
	f.Add([]byte{8, 7, 6, 5, 4, 3, 2, 1, 0}) // fully reversed
	f.Add([]byte{4, 2, 2, 0, 3, 1, 0})       // holes plus duplicates
	f.Add([]byte{1})                         // single segment, no order bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nseg := int(data[0])%24 + 1
		const mss = units.Bytes(1000)
		size := units.Bytes(nseg) * mss

		sim := eventsim.New()
		flow := netem.FlowID{Src: 1, Dst: 2, Port: 9}
		var acks []units.Bytes
		out := func(p *netem.Packet) {
			if p.Kind == netem.Ack {
				acks = append(acks, p.Ack)
			}
		}
		r := loneFlow(sim, Config{SACK: true}, flow, size, discard, out).Receiver()

		deliver := func(i int) {
			seq := units.Bytes(i) * mss
			r.onData(&netem.Packet{
				Flow:    flow,
				Kind:    netem.Data,
				Seq:     seq,
				Payload: mss,
				Wire:    mss + 40,
				FIN:     seq+mss >= size,
			})
		}

		seen := make([]bool, nseg)
		for _, b := range data[1:] {
			i := int(b) % nseg
			deliver(i)
			seen[i] = true
		}
		// Whatever the fuzzer chose, complete the flow: the property
		// under test is order-independence, not loss recovery.
		for i := 0; i < nseg; i++ {
			if !seen[i] {
				deliver(i)
			}
		}

		prev := units.Bytes(0)
		for _, a := range acks {
			if a < prev {
				t.Fatalf("cumulative ACK went backwards: %d after %d", a, prev)
			}
			if a > size {
				t.Fatalf("ACK %d beyond flow size %d", a, size)
			}
			if a%mss != 0 {
				t.Fatalf("ACK %d not segment-aligned", a)
			}
			prev = a
		}
		if !r.Complete() || r.rcvNxt != size {
			t.Fatalf("after all segments: rcvNxt=%d, want %d", r.rcvNxt, size)
		}
		if !r.ooo.Empty() {
			t.Fatalf("out-of-order buffer not drained: %v", r.ooo.Segs())
		}
	})
}

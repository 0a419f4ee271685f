package transport

import (
	"fmt"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// wire is two pooled hosts joined by the test itself: what host 0 emits
// collects in sent, what host 1 emits in acked, and nothing moves until
// the test delivers it.
type wire struct {
	sim   *eventsim.Sim
	pool  *netem.PacketPool
	hosts [2]*Host
	//simlint:allow packetown(the test is the network here: it holds emitted packets until it delivers them)
	sent, acked []*netem.Packet
	snd         *Sender
}

// newWire opens and starts a two-segment flow from host 0 to host 1 and
// delivers its handshake; its whole first window — both segments — is
// in sent when it returns.
func newWire(t *testing.T) *wire {
	t.Helper()
	w := &wire{sim: eventsim.New(), pool: netem.NewPacketPool()}
	w.hosts[0] = NewHost(w.sim, 0, func(p *netem.Packet) { w.sent = append(w.sent, p) })
	w.hosts[1] = NewHost(w.sim, 1, func(p *netem.Packet) { w.acked = append(w.acked, p) })
	for _, h := range w.hosts {
		h.SetPool(w.pool)
	}
	cfg := testCfg()
	w.snd = Open(&cfg, w.hosts[0], w.hosts[1], netem.FlowID{Src: 0, Dst: 1, Port: 7}, 2*MSS, nil)
	w.snd.Start()
	if len(w.sent) != 1 || w.sent[0].Kind != netem.Syn {
		t.Fatalf("flow opened with %d packets, want one SYN", len(w.sent))
	}
	syn := w.sent[0]
	w.sent = nil
	w.hosts[1].Receive(syn)
	if len(w.acked) != 1 || w.acked[0].Kind != netem.SynAck {
		t.Fatalf("SYN answered with %d packets, want one SYN-ACK", len(w.acked))
	}
	synAck := w.acked[0]
	w.acked = nil
	w.hosts[0].Receive(synAck)
	if len(w.sent) != 2 {
		t.Fatalf("first window is %d packets, want 2", len(w.sent))
	}
	return w
}

// shuttle delivers everything emitted, and what that elicits, until the
// wire is quiet.
func (w *wire) shuttle() {
	for len(w.sent)+len(w.acked) > 0 {
		sent, acked := w.sent, w.acked
		w.sent, w.acked = nil, nil
		for _, p := range sent {
			w.hosts[1].Receive(p)
		}
		for _, p := range acked {
			w.hosts[0].Receive(p)
		}
	}
}

// quiet fails unless delivering pkt to host to emits nothing, leaves the
// flow's record as it was and still returns the packet to the pool.
func (w *wire) quiet(t *testing.T, to int, pkt *netem.Packet) {
	t.Helper()
	before, idle, held := *w.snd.Stats, w.pool.Idle(), len(w.sent)+len(w.acked)
	w.hosts[to].Receive(pkt)
	if n := len(w.sent) + len(w.acked) - held; n != 0 {
		t.Errorf("%d packets emitted in answer, want none", n)
	}
	if *w.snd.Stats != before {
		t.Errorf("record changed:\n was %+v\n now %+v", before, *w.snd.Stats)
	}
	if got := w.pool.Idle(); got != idle+1 {
		t.Errorf("pool holds %d idle packets after the delivery, want %d", got, idle+1)
	}
}

// TestEndpointContract states what a host does with a delivered packet
// now that the packet, not a per-host table, names the endpoint.
func TestEndpointContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, w *wire)
	}{
		{"data after the close is ignored", func(t *testing.T, w *wire) {
			data := w.sent[0]
			w.hosts[1].CloseReceiverAt(w.sim.Now(), 0, w.snd.Receiver())
			w.quiet(t, 1, data)
		}},
		{"ACK after completion is ignored", func(t *testing.T, w *wire) {
			w.shuttle()
			if !w.snd.Done() {
				t.Fatal("flow did not complete")
			}
			w.quiet(t, 0, &netem.Packet{Flow: w.snd.ID().Reversed(), Kind: netem.Ack, Ack: w.snd.Size(), To: &w.snd.ep})
		}},
		{"late retransmission is answered until the teardown lag has passed", func(t *testing.T, w *wire) {
			late := *w.sent[1]
			late.Retransmit = true
			w.shuttle()
			const lag = 10 * units.Microsecond
			w.hosts[1].CloseReceiverAt(w.sim.Now(), lag, w.snd.Receiver())
			w.sim.RunUntil(lag - 1)
			again := late
			w.hosts[1].Receive(&again)
			if len(w.acked) != 1 || w.acked[0].Kind != netem.Ack || w.acked[0].Ack != w.snd.Size() {
				t.Fatalf("before the lag the retransmission elicited %d packets, want one ACK of the whole flow", len(w.acked))
			}
			w.acked = nil
			w.sim.RunUntil(lag)
			w.quiet(t, 1, &late)
		}},
		{"packet with no endpoint is dropped", func(t *testing.T, w *wire) {
			w.quiet(t, 1, &netem.Packet{Flow: w.snd.ID(), Kind: netem.Data, Payload: 100, Wire: 140})
		}},
		{"delivery to the wrong host panics", func(t *testing.T, w *wire) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "on host 1 delivered to host 0") {
					t.Errorf("panic %q does not name both hosts", msg)
				}
			}()
			w.hosts[0].Receive(w.sent[0])
		}},
		{"Put clears the endpoint", func(t *testing.T, w *wire) {
			pkt := w.sent[0]
			if pkt.To == nil {
				t.Fatal("emitted packet names no endpoint")
			}
			w.pool.Put(pkt)
			//simlint:allow packetown(what Put left in the released packet is what this row checks)
			if pkt.To != nil {
				t.Error("an idle pooled packet still points at its endpoint")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newWire(t)) })
	}
}

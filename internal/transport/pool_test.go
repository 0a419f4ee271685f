package transport

import (
	"fmt"
	"reflect"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/units"
)

// yard is hosts sharing one packet pool and one flow pool, joined by the
// test itself: what any host emits waits in held, in emission order,
// until the test delivers it to the host its endpoint lives on.
type yard struct {
	sim   *eventsim.Sim
	pool  *netem.PacketPool
	flows *FlowPool
	cfg   Config
	hosts []*Host
	//simlint:allow packetown(the test is the network here: it holds emitted packets until it delivers them)
	held []*netem.Packet
}

func newYard(hosts int, cfg Config) *yard {
	y := &yard{sim: eventsim.New(), pool: netem.NewPacketPool(), flows: &FlowPool{}, cfg: cfg}
	for i := 0; i < hosts; i++ {
		h := NewHost(y.sim, i, func(p *netem.Packet) { y.held = append(y.held, p) }, y.pool, y.flows)
		y.hosts = append(y.hosts, h)
	}
	return y
}

// open opens and starts a two-segment flow; its SYN is held.
func (y *yard) open(src, dst, port int, done func(*Sender)) *Sender {
	s := Open(&y.cfg, y.hosts[src], y.hosts[dst], netem.FlowID{Src: src, Dst: dst, Port: port}, 2*MSS, done)
	s.Start()
	return s
}

// closeAfter is a done callback that closes the flow's receiver lag
// after completion, as the runner does.
func (y *yard) closeAfter(lag units.Time) func(*Sender) {
	return func(s *Sender) { y.hosts[s.ID().Dst].CloseReceiverAt(y.sim.Now(), lag, s.Receiver()) }
}

// next delivers the oldest held packet.
func (y *yard) next() {
	pkt := y.held[0]
	y.held = y.held[1:]
	y.hosts[pkt.To.Host].Receive(pkt)
}

// drain delivers everything held, and what that elicits, until nothing
// is; keep, when set, sees each packet before its delivery.
func (y *yard) drain(keep func(*netem.Packet)) {
	for len(y.held) > 0 {
		if keep != nil {
			keep(y.held[0])
		}
		y.next()
	}
}

// TestStalePacketIgnoredByRecycledFlow: a packet still in flight to a
// flow whose memory now serves another flow is ignored — the finished
// sender or closed receiver it was sent to would have ignored it — and
// leaves the new flow's state and record as they were, wherever the new
// flow lives: on other hosts, the endpoint it names is on another host
// than the one it reaches, which is not a misroute.
func TestStalePacketIgnoredByRecycledFlow(t *testing.T) {
	for _, kind := range []netem.Kind{netem.Data, netem.Ack, netem.SynAck} {
		for _, hosts := range [][2]int{{0, 1}, {2, 3}} {
			t.Run(fmt.Sprintf("%v to a flow now %d->%d", kind, hosts[0], hosts[1]), func(t *testing.T) {
				y := newYard(4, testCfg())
				old := y.open(0, 1, 1, y.closeAfter(0))
				var stale netem.Packet
				staleHost := -1
				y.drain(func(p *netem.Packet) {
					if p.Kind == kind && staleHost < 0 {
						stale, staleHost = *p, p.To.Host
					}
				})
				if !old.Done() || y.flows.Idle() != 1 {
					t.Fatalf("old flow done %v, %d idle flows; want done and released", old.Done(), y.flows.Idle())
				}
				fresh := y.open(hosts[0], hosts[1], 2, nil)
				if fresh != old || y.flows.Recycled() != 1 {
					t.Fatal("the new flow does not reuse the released one")
				}
				// A stale SYN-ACK can only do harm before the new one
				// arrives; stale data and ACKs after it.
				y.next() // SYN
				if kind != netem.SynAck {
					y.next() // SYN-ACK; the first window is held
				}
				snd, rcv, rec, held := *fresh, *fresh.Receiver(), *fresh.Stats, len(y.held)
				y.hosts[staleHost].Receive(&stale)
				if len(y.held) != held {
					t.Errorf("%d packets emitted in answer, want none", len(y.held)-held)
				}
				if !reflect.DeepEqual(*fresh, snd) || !reflect.DeepEqual(*fresh.Receiver(), rcv) {
					t.Error("the new flow's endpoints changed")
				}
				if *fresh.Stats != rec {
					t.Errorf("the new flow's record changed:\n was %+v\n now %+v", rec, *fresh.Stats)
				}
				y.drain(nil)
				if !fresh.Done() || fresh.Stats.BytesAcked != 2*MSS {
					t.Errorf("the new flow did not complete on its own packets: %+v", *fresh.Stats)
				}
			})
		}
	}
}

// TestFlowReleasedAfterLastReference: a flow goes back to its pool only
// once nothing but stale packets can reach it — not while its receiver
// is open, not inside its done callback (where the runner folds the
// record, after an immediate close too), not while a delayed-ACK timer
// that would still fire is pending.
func TestFlowReleasedAfterLastReference(t *testing.T) {
	const lag = 10 * units.Microsecond
	idle := func(t *testing.T, y *yard, want int, when string) {
		t.Helper()
		if got := y.flows.Idle(); got != want {
			t.Errorf("%s: %d idle flows, want %d", when, got, want)
		}
	}
	t.Run("receiver open until the teardown lag", func(t *testing.T) {
		y := newYard(2, testCfg())
		s := y.open(0, 1, 1, y.closeAfter(lag))
		y.drain(nil)
		if !s.Done() {
			t.Fatal("flow did not complete")
		}
		idle(t, y, 0, "completed, receiver open")
		y.sim.RunUntil(y.sim.Now() + lag)
		idle(t, y, 1, "receiver closed")
	})
	t.Run("done callback with an immediate close", func(t *testing.T) {
		y := newYard(2, testCfg())
		id := netem.FlowID{Src: 0, Dst: 1, Port: 1}
		called := false
		y.open(0, 1, 1, func(s *Sender) {
			y.closeAfter(0)(s)
			called = true
			idle(t, y, 0, "inside the done callback, after the close")
			if s.Stats.ID != id || !s.Stats.Done {
				t.Errorf("record inside the done callback is %+v", *s.Stats)
			}
		})
		y.drain(nil)
		if !called {
			t.Fatal("flow did not complete")
		}
		idle(t, y, 1, "after the done callback")
	})
	t.Run("delayed-ACK timer pending at the close", func(t *testing.T) {
		cfg := testCfg()
		cfg.DelayedAck = true
		y := newYard(2, cfg)
		s := y.open(0, 1, 1, y.closeAfter(0))
		y.next() // SYN
		y.next() // SYN-ACK
		y.next() // the first segment: its ACK is delayed
		if !s.Receiver().ackTimer.Scheduled() {
			t.Fatal("no delayed-ACK timer pending")
		}
		// Complete the sender while the timer is pending.
		y.hosts[0].Receive(&netem.Packet{Flow: s.ID().Reversed(), Kind: netem.Ack, Ack: s.Size(), To: &s.ep})
		if !s.Done() || !s.Receiver().closed {
			t.Fatal("flow not completed and closed")
		}
		idle(t, y, 0, "closed, delayed ACK pending")
		y.sim.RunUntil(y.sim.Now() + DelayedAckTimeout)
		idle(t, y, 1, "delayed ACK fired")
	})
}

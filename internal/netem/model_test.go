package netem

import (
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// modelEntry is one admitted packet of the reference port.
type modelEntry struct {
	pkt                     *Packet
	admittedAt              units.Time
	serviceStart, deliverAt units.Time
}

// modelPort is the reference the intrusive queue is checked against: a
// plain-slice FIFO with a started index and every counter stored
// (Dequeued and BytesOut included, which the real port derives),
// keeping the same lazy occupancy accounting and the same admission
// arithmetic as Port.Send.
type modelPort struct {
	entries      []modelEntry
	started      int
	waitingBytes units.Bytes
	cfg          QueueConfig
	stats        QueueStats
	link         LinkConfig
	down         bool
	lastFinish   units.Time
}

func (m *modelPort) advance(now units.Time) {
	for m.started < len(m.entries) && m.entries[m.started].serviceStart <= now {
		w := m.entries[m.started].pkt.Wire
		m.started++
		m.waitingBytes -= w
		m.stats.Dequeued++
		m.stats.BytesOut += w
	}
}

func (m *modelPort) len(now units.Time) int {
	m.advance(now)
	return len(m.entries) - m.started
}

// send mirrors Port.Send and Queue admission; it returns whether the
// packet was admitted and the queue length it saw.
func (m *modelPort) send(pkt *Packet, now units.Time) (admitted bool, l int) {
	if m.down {
		m.stats.FaultDropped++
		return false, 0
	}
	l = m.len(now)
	m.stats.SumLenOnArrival += int64(l)
	if m.cfg.Capacity > 0 && l >= m.cfg.Capacity {
		m.stats.Dropped++
		return false, l
	}
	if m.cfg.ECNThreshold > 0 && l >= m.cfg.ECNThreshold {
		m.stats.Marked++
	}
	start := max(now, m.lastFinish)
	finish := start + m.link.Bandwidth.TxTime(pkt.Wire)
	m.entries = append(m.entries, modelEntry{pkt: pkt, admittedAt: now, serviceStart: start, deliverAt: finish + m.link.Delay})
	m.lastFinish = finish
	m.waitingBytes += pkt.Wire
	m.stats.Enqueued++
	m.stats.BytesIn += pkt.Wire
	m.stats.MaxLen = max(m.stats.MaxLen, l+1)
	return true, l
}

// pop removes the head at its delivery; a head no occupancy query has
// advanced past is counted out here.
func (m *modelPort) pop() modelEntry {
	e := m.entries[0]
	m.entries = m.entries[1:]
	if m.started > 0 {
		m.started--
	} else {
		m.waitingBytes -= e.pkt.Wire
		m.stats.Dequeued++
		m.stats.BytesOut += e.pkt.Wire
	}
	return e
}

// TestQueueMatchesModel drives one Port and the reference through
// seeded random sequences of send bursts, time advances, single
// deliveries and SetDown. After every step the counters (read
// before any occupancy query, so the lazy accounting must agree too),
// Len, Bytes, the armed head delivery's (time, key) and everything
// delivered so far — which packet, when — must match. A 20 ms
// propagation delay against ~12 µs serializations lets well over a
// thousand packets start service before the first delivers, so long
// advance walks and deep chains are both covered (asserted below).
func TestQueueMatchesModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		cfg  QueueConfig
	}{
		{"unbounded-ecn", 1, QueueConfig{ECNThreshold: 65}},
		{"unbounded", 2, QueueConfig{}},
		{"droptail", 3, QueueConfig{Capacity: 24, ECNThreshold: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := eventsim.New()
			rng := eventsim.NewRNG(tc.seed)
			link := LinkConfig{Bandwidth: units.Gbps, Delay: 20 * units.Millisecond}
			m := &modelPort{cfg: tc.cfg, link: link}
			delivered := 0
			var p *Port
			p = NewPort(s, link, tc.cfg, func(pkt *Packet) {
				want := m.pop()
				if pkt != want.pkt || s.Now() != want.deliverAt {
					t.Fatalf("delivery %d: got packet %p at %v, want %p at %v", delivered, pkt, s.Now(), want.pkt, want.deliverAt)
				}
				if pkt.queued || pkt.next != nil {
					t.Fatalf("delivery %d: packet still linked (queued=%v next=%p)", delivered, pkt.queued, pkt.next)
				}
				delivered++
			}, "model")

			maxDepth, maxWalk := 0, 0
			check := func(step int, op string) {
				t.Helper()
				now := s.Now()
				if got := p.Queue().Stats(); got != m.stats {
					t.Fatalf("step %d (%s): stats %+v, want %+v", step, op, got, m.stats)
				}
				before := m.started
				wantLen := m.len(now)
				maxWalk = max(maxWalk, m.started-before)
				maxDepth = max(maxDepth, len(m.entries))
				if got := p.Queue().Len(now); got != wantLen {
					t.Fatalf("step %d (%s): Len %d, want %d", step, op, got, wantLen)
				}
				if got := p.Queue().Bytes(now); got != m.waitingBytes {
					t.Fatalf("step %d (%s): Bytes %d, want %d", step, op, got, m.waitingBytes)
				}
				if got := p.Queue().Stats(); got != m.stats {
					t.Fatalf("step %d (%s): stats after advance %+v, want %+v", step, op, got, m.stats)
				}
				if p.evPending != (len(m.entries) > 0) {
					t.Fatalf("step %d (%s): evPending %v with %d undelivered", step, op, p.evPending, len(m.entries))
				}
				if len(m.entries) > 0 {
					at, key := p.headDelivery()
					if h := m.entries[0]; at != h.deliverAt || key != DeliveryKey(h.admittedAt, p.idx) {
						t.Fatalf("step %d (%s): head armed at (%v, %#x), want (%v, %#x)", step, op, at, key, h.deliverAt, DeliveryKey(h.admittedAt, p.idx))
					}
				}
			}

			for step := 0; step < 4000; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 45:
					op = "send"
					for n := 1 + rng.Intn(120); n > 0; n-- {
						pk := pkt(units.Bytes(64 + rng.Intn(1437)))
						admitted, l := m.send(pk, s.Now())
						if got := p.Send(pk); got != admitted {
							t.Fatalf("step %d: Send = %v, want %v", step, got, admitted)
						}
						if pk.queued != admitted {
							t.Fatalf("step %d: queued = %v on a packet with Send = %v", step, pk.queued, admitted)
						}
						if !admitted {
							continue
						}
						e := m.entries[len(m.entries)-1]
						wantCE := tc.cfg.ECNThreshold > 0 && l >= tc.cfg.ECNThreshold
						if pk.MaxQueueSeen != l || pk.CE != wantCE || pk.QueueDelay != e.serviceStart-s.Now() {
							t.Fatalf("step %d: admitted with MaxQueueSeen=%d CE=%v QueueDelay=%v, want %d %v %v",
								step, pk.MaxQueueSeen, pk.CE, pk.QueueDelay, l, wantCE, e.serviceStart-s.Now())
						}
					}
				case r < 75:
					op = "advance"
					// Mostly a few serializations' worth; sometimes far.
					dt := units.Time(rng.Intn(int(100 * units.Microsecond)))
					if rng.Intn(8) == 0 {
						dt = units.Time(rng.Intn(int(30 * units.Millisecond)))
					}
					s.RunUntil(s.Now() + dt)
				case r < 90:
					op = "deliver"
					s.Step()
				default:
					op = "setdown"
					m.down = !m.down
					p.SetDown(m.down)
				}
				check(step, op)
			}
			s.Run()
			check(-1, "drain")
			if len(m.entries) != 0 || int64(delivered) != m.stats.Enqueued {
				t.Fatalf("drained with %d undelivered, %d delivered of %d admitted", len(m.entries), delivered, m.stats.Enqueued)
			}
			if tc.cfg.Capacity == 0 && (maxDepth <= 1024 || maxWalk <= 1024) {
				t.Errorf("deepest chain %d, longest advance walk %d: the sequence never went past 1024", maxDepth, maxWalk)
			}
			if tc.cfg.Capacity > 0 && m.stats.Dropped == 0 {
				t.Error("the bounded queue never dropped")
			}
		})
	}
}

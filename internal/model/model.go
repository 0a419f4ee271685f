// Package model implements the paper's §4 queueing analysis: the
// M/G/1-FCFS model (Pollaczek–Khintchine) for short-flow queueing
// delay, the path-allocation balance for long flows (Eq. 1–2), the
// slow-start round count (Eq. 3), the short-flow FCT fixed point
// (Eq. 8) and the optimal switching threshold q_th (Eq. 9).
//
// The model works in packet units throughout: capacity C is packets per
// second per path, sizes are packets, and the resulting q_th is a queue
// length in packets — the unit the paper's figures use. This is exactly
// the unit system in which the paper's E[S] = 1/C (service time of a
// single packet) holds. Packets are the transport's: MSS payload bytes,
// HeaderBytes more on the wire, and W_L is its receive window.
package model

import (
	"fmt"
	"math"

	"tlb/internal/transport"
	"tlb/internal/units"
)

// Params collects the inputs of Eq. 9.
type Params struct {
	// Paths is n, the number of equal-cost paths.
	Paths int
	// ShortFlows is m_S, the number of concurrent short flows.
	ShortFlows int
	// LongFlows is m_L, the number of concurrent long flows.
	LongFlows int
	// LinkBandwidth is the per-path bottleneck bandwidth.
	LinkBandwidth units.Bandwidth
	// RTT is the round-trip propagation delay.
	RTT units.Time
	// MeanShortSize is X, the mean short-flow size in bytes.
	MeanShortSize units.Bytes
	// Deadline is D, the short-flow completion budget.
	Deadline units.Time
	// Interval is t, the granularity-update period (500 µs default).
	Interval units.Time
	// UncappedLongDemand reproduces the paper's Eq. 1 literally, where
	// each long flow is assumed to send W_L per propagation RTT. With
	// W_L = 64 KB and RTT = 100 µs that is 5+ Gbps per flow — more
	// than a 1 Gbps NIC can physically emit — so by default the
	// per-long demand is capped at the line rate C. The cap only
	// matters when W_L/RTT > C; set this flag for paper-literal
	// numbers (e.g. the Fig. 7 numeric curves).
	UncappedLongDemand bool
}

func (p Params) withDefaults() Params {
	if p.Interval <= 0 {
		p.Interval = 500 * units.Microsecond
	}
	return p
}

// Validate reports structural problems with the parameters.
func (p Params) Validate() error {
	switch {
	case p.Paths <= 0:
		return fmt.Errorf("model: need paths > 0, got %d", p.Paths)
	case p.LinkBandwidth <= 0:
		return fmt.Errorf("model: need positive bandwidth")
	case p.RTT <= 0:
		return fmt.Errorf("model: need positive RTT")
	case p.MeanShortSize <= 0:
		return fmt.Errorf("model: need positive mean short size")
	case p.Deadline <= 0:
		return fmt.Errorf("model: need positive deadline")
	case p.ShortFlows < 0 || p.LongFlows < 0:
		return fmt.Errorf("model: negative flow counts")
	}
	return nil
}

// capacityPkts returns C in packets/second per path.
func (p Params) capacityPkts() float64 {
	return p.LinkBandwidth.PacketsPerSecond(transport.MSS + transport.HeaderBytes)
}

// shortSizePkts returns X in packets.
func (p Params) shortSizePkts() float64 {
	return float64(p.MeanShortSize) / float64(transport.MSS)
}

// longWindowPkts returns W_L in packets.
func (p Params) longWindowPkts() float64 {
	return float64(transport.RcvWindow) / float64(transport.MSS)
}

// Rounds implements Eq. 3: the number of slow-start RTT rounds to
// transfer X bytes starting from a 2-segment window
// (r = floor(log2(X/MSS)) + 1, at least 1).
func Rounds(x, mss units.Bytes) int {
	if x <= mss {
		return 1
	}
	r := int(math.Floor(math.Log2(float64(x)/float64(mss)))) + 1
	if r < 1 {
		r = 1
	}
	return r
}

// PKWait implements Eq. 6: the expected M/D/1-FCFS waiting time
// (P-K formula with C_v^2 = 0) at load rho on a server draining C
// packets per second. Returns +Inf at rho >= 1.
func PKWait(rho, capacityPkts float64) float64 {
	if rho < 0 {
		return 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (2 * (1 - rho)) / capacityPkts
}

// ShortPathsNeeded returns n_S, the number of paths short flows need so
// that their mean FCT equals the deadline D. This is the m_S
// coefficient inside Eq. 9's denominator. It returns +Inf when the
// deadline is infeasible (D <= X/C: even an empty network can't make
// it).
func (p Params) ShortPathsNeeded() float64 {
	p = p.withDefaults()
	c := p.capacityPkts()
	x := p.shortSizePkts()
	d := p.Deadline.Seconds()
	a := d - x/c // time budget left for queueing
	if a <= 0 {
		return math.Inf(1)
	}
	r := float64(Rounds(p.MeanShortSize, transport.MSS))
	// From FCT_S = r*rho/(2(1-rho)C) + X/C = D:
	//   rho = 2aC / (r + 2aC)
	// and lambda = mS*X/(D*nS)  =>  nS = mS*X/(D*C*rho).
	rho := 2 * a * c / (r + float64(2*a*c))
	return float64(p.ShortFlows) * x / (d * c * rho)
}

// QTh implements Eq. 9: the minimum queue-length switching threshold
// (in packets) for rerouting long flows such that short flows still
// meet the deadline. The result is clamped to [0, +Inf); math.Inf(1)
// means "never switch" (the deadline leaves no spare paths, so long
// flows must hold maximal granularity).
func (p Params) QTh() float64 {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return math.Inf(1)
	}
	c := p.capacityPkts()
	t := p.Interval.Seconds()
	if p.LongFlows == 0 {
		return 0 // nothing to reroute: switch freely
	}
	nS := p.ShortPathsNeeded()
	nL := float64(p.Paths) - nS
	if nL <= 0 {
		return math.Inf(1)
	}
	// Eq. 1/2: q_th*nL + t*C*nL = mL*WL*t/RTT  (all in packets).
	perLongRate := p.longWindowPkts() / p.RTT.Seconds() // pkts/s
	if !p.UncappedLongDemand && perLongRate > c {
		perLongRate = c
	}
	demand := float64(p.LongFlows) * perLongRate * t
	qth := demand/nL - float64(t*c)
	if qth < 0 {
		return 0
	}
	return qth
}

// QThPackets returns Eq. 9 rounded up to whole packets and clamped to
// the given maximum (typically the switch buffer size). A +Inf model
// result clamps to max.
func (p Params) QThPackets(max int) int {
	q := p.QTh()
	if math.IsInf(q, 1) || q > float64(max) {
		return max
	}
	return int(math.Ceil(q))
}

// FCTShort solves Eq. 8: the mean short-flow FCT implied by a given
// switching threshold qth (packets). It returns +Inf when the short
// flows' offered load saturates their allocated paths.
//
// Eq. 8 is a fixed point because lambda depends on FCT_S; substituting
// yields a quadratic in FCT_S which we solve directly:
//
//	FCT = r*mS*X / (2C(FCT*nS*C - mS*X)) + X/C
//
// with nS = n - mL*WL*(t/RTT)/(qth + tC).
func (p Params) FCTShort(qth float64) float64 {
	p = p.withDefaults()
	c := p.capacityPkts()
	x := p.shortSizePkts()
	t := p.Interval.Seconds()
	nS := float64(p.Paths)
	if p.LongFlows > 0 {
		nS -= float64(p.LongFlows) * p.longWindowPkts() * (t / p.RTT.Seconds()) / (qth + float64(t*c))
	}
	if nS <= 0 {
		return math.Inf(1)
	}
	// The empty-shorts special case tests the integer count, not its
	// float64 mirror: an exact float comparison would only be correct by
	// accident of the int→float conversion, and simlint's floateq rule
	// flags it. No epsilon is involved anywhere in this branch — the
	// quadratic below tolerates any ms > 0.
	if p.ShortFlows == 0 {
		return x / c
	}
	ms := float64(p.ShortFlows)
	r := float64(Rounds(p.MeanShortSize, transport.MSS))
	// Let F = FCT, T0 = X/C. F = r*ms*x/(2C(F*nS*C - ms*x)) + T0
	// => (F - T0)(F*nS*C - ms*x)*2C = r*ms*x
	// => 2C*nS*C*F^2 - 2C(ms*x + T0*nS*C)F + 2C*T0*ms*x - r*ms*x = 0.
	t0 := x / c
	A := float64(2 * c * nS * c)
	B := float64(-2 * c * (float64(ms*x) + float64(t0*nS*c)))
	C := float64(2*c*t0*ms*x) - float64(r*ms*x)
	disc := float64(B*B) - float64(4*A*C)
	if disc < 0 {
		return math.Inf(1)
	}
	f := (-B + math.Sqrt(disc)) / (2 * A)
	if f < t0 {
		return math.Inf(1)
	}
	return f
}

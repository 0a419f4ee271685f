package sim

import "tlb/internal/units"

// Class selects a flow subset for aggregation.
type Class int

// Flow classes.
const (
	AllFlows Class = iota
	ShortFlows
	LongFlows
)

// Every accessor below reads Result.Stream, the one representation of a
// run's flow measurements.

// Count returns the number of flows in the class.
func (r *Result) Count(c Class) int { return int(r.Stream.Agg(c).Count) }

// CompletedCount returns how many flows in the class finished.
func (r *Result) CompletedCount(c Class) int { return int(r.Stream.Agg(c).Completed) }

// AFCT returns the mean completion time of finished flows in the class.
func (r *Result) AFCT(c Class) units.Time {
	return units.FromSeconds(r.Stream.Agg(c).FCT.Mean())
}

// FCTPercentile returns the p-th percentile FCT of finished flows in
// the class: exact while at most stats.ExactFCTCap of them finished,
// within the quantile sketch's relative-error bound
// (stats.SketchAlpha) past that.
func (r *Result) FCTPercentile(c Class, p float64) units.Time {
	return units.FromSeconds(r.Stream.Agg(c).FCTs().Percentile(p))
}

// DeadlineMissRatio returns the fraction of deadline-carrying flows in
// the class that missed (finished late or unfinished past the
// deadline at run end).
func (r *Result) DeadlineMissRatio(c Class) float64 { return r.Stream.Agg(c).MissRatio() }

// Goodput returns the class's aggregate goodput: acknowledged payload
// bytes divided by each flow's active time, averaged per flow. This is
// the "throughput of long flows" metric of Fig. 10d/11d.
func (r *Result) Goodput(c Class) units.Bandwidth {
	return units.Bandwidth(r.Stream.Agg(c).MeanGoodput())
}

// UplinkUtilization returns mean busy fraction across all leaf uplinks
// — the link-utilization metric of Fig. 4a.
func (r *Result) UplinkUtilization() float64 {
	if len(r.Uplinks) == 0 || r.EndTime <= 0 {
		return 0
	}
	var sum float64
	for _, p := range r.Uplinks {
		sum += float64(p.BusyTime) / float64(r.EndTime)
	}
	return sum / float64(len(r.Uplinks))
}

// TotalRetransmits sums retransmissions in the class.
func (r *Result) TotalRetransmits(c Class) int64 { return r.Stream.Agg(c).Retransmits }

// TotalTimeouts sums RTO events in the class.
func (r *Result) TotalTimeouts(c Class) int64 { return r.Stream.Agg(c).Timeouts }

// OutOfOrderRatio returns out-of-order arrivals over received packets
// for the class — Fig. 4b's reordering metric.
func (r *Result) OutOfOrderRatio(c Class) float64 {
	a := r.Stream.Agg(c)
	if a.PacketsRecv == 0 {
		return 0
	}
	return float64(a.OutOfOrder) / float64(a.PacketsRecv)
}

// DupAckRatio returns duplicate ACKs over received data packets for
// the class — Fig. 3b's metric.
func (r *Result) DupAckRatio(c Class) float64 {
	a := r.Stream.Agg(c)
	if a.PacketsRecv == 0 {
		return 0
	}
	return float64(a.DupAcksSent) / float64(a.PacketsRecv)
}

// MeanQueueDelay returns the mean per-packet queueing delay of the
// class's received data packets.
func (r *Result) MeanQueueDelay(c Class) units.Time {
	a := r.Stream.Agg(c)
	if a.DelaySamples == 0 {
		return 0
	}
	return units.Time(a.SumQueueDelay / a.DelaySamples)
}

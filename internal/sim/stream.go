package sim

import (
	"tlb/internal/stats"
	"tlb/internal/transport"
	"tlb/internal/units"
)

// StreamAgg is the one representation of a run's flow measurements:
// a fixed-size stats.FlowAgg per class, O(1) memory in the flow count.
// Every run folds each flow into it exactly once and every Result
// accessor reads it. Its FCT percentiles are exact up to
// stats.ExactFCTCap completed flows per class and carry the quantile
// sketch's relative-error bound (stats.SketchAlpha) past it;
// everything else is exact.
type StreamAgg struct {
	Classes [3]stats.FlowAgg // indexed by Class: AllFlows, ShortFlows, LongFlows
}

// Agg returns the accumulator for one class.
func (st *StreamAgg) Agg(c Class) *stats.FlowAgg { return &st.Classes[c] }

// Fold reduces one flow record into the All class plus its size class
// and forgets it. end is the run end time, used to judge deadlines and
// goodput duration of unfinished flows (completed flows carry their
// own End).
func (st *StreamAgg) Fold(fs *transport.FlowStats, short bool, end units.Time) {
	foldOne(&st.Classes[AllFlows], fs, end)
	if short {
		foldOne(&st.Classes[ShortFlows], fs, end)
	} else {
		foldOne(&st.Classes[LongFlows], fs, end)
	}
}

// foldOne defines each per-class metric over one record: counters sum
// in the record's native integer domain; FCT seconds feed the Online
// accumulator and the sketch.
func foldOne(a *stats.FlowAgg, fs *transport.FlowStats, end units.Time) {
	a.Count++
	if fs.Done {
		a.Completed++
		a.AddFCT(fs.FCT().Seconds())
	}
	if fs.Deadline != 0 {
		a.DeadlineTotal++
		if fs.MissedDeadline(end) {
			a.DeadlineMissed++
		}
	}
	e := fs.End
	if !fs.Done {
		e = end
	}
	if dur := (e - fs.Start).Seconds(); dur > 0 && fs.BytesAcked > 0 {
		a.GoodputSum += float64(fs.BytesAcked) * 8 / dur
		a.GoodputN++
	}
	a.BytesAcked += int64(fs.BytesAcked)
	a.Retransmits += fs.Retransmits
	a.Timeouts += fs.Timeouts
	a.PacketsRecv += fs.PacketsRecv
	a.OutOfOrder += fs.OutOfOrder
	a.DupAcksSent += fs.DupAcksSent
	a.SumQueueDelay += int64(fs.SumQueueDelay)
	a.DelaySamples += fs.DelaySamples
}

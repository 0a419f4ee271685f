package stats

// FlowAgg is a fixed-size accumulator for one class of flows. Every
// figure-level metric the sim.Result accessors report is read from
// these fields — mean/min/max FCT via Online, FCT percentiles via the
// sketch (within its alpha bound), and the rest from plain counters.
// Memory is O(1) per flow observed.
//
// Time-valued sums (FCT seconds aside) stay in the caller's native
// integer tick domain so the counters equal a direct sum over the
// per-flow records exactly, not just approximately.
type FlowAgg struct {
	// Count is every flow observed; Completed those that finished.
	Count     int64
	Completed int64

	// FCT aggregates completion times in seconds, completed flows only.
	FCT Online
	// Sketch estimates FCT percentiles, completed flows only. Lazily
	// created on first AddFCT so a zero FlowAgg is usable.
	Sketch *QuantileSketch

	// DeadlineTotal counts flows that carried a deadline;
	// DeadlineMissed those that finished late or were unfinished past
	// it at run end.
	DeadlineTotal  int64
	DeadlineMissed int64

	// GoodputSum accumulates per-flow goodput (bits/second over the
	// flow's active time) for GoodputN flows with positive duration and
	// acked bytes: sim.Result.Goodput's per-flow average.
	GoodputSum float64
	GoodputN   int64

	// BytesAcked sums cumulatively acknowledged payload bytes.
	BytesAcked int64

	// Sender/receiver counters, summed over the class.
	Retransmits int64
	Timeouts    int64
	PacketsRecv int64
	OutOfOrder  int64
	DupAcksSent int64

	// SumQueueDelay is total queueing delay in native time ticks;
	// DelaySamples the packet count it averages over.
	SumQueueDelay int64
	DelaySamples  int64
}

// AddFCT records one completed flow's completion time in seconds,
// creating the sketch on first use.
func (a *FlowAgg) AddFCT(seconds float64) {
	if a.Sketch == nil {
		a.Sketch = NewQuantileSketch(DefaultSketchAlpha)
	}
	a.FCT.Add(seconds)
	a.Sketch.Add(seconds)
}

// Merge folds another accumulator into this one; merged counters are
// exact and the sketch merge preserves its bound, so an observer can
// reduce the aggregates of a sweep's runs into one.
func (a *FlowAgg) Merge(b *FlowAgg) {
	a.Count += b.Count
	a.Completed += b.Completed
	a.FCT.Merge(&b.FCT)
	if b.Sketch != nil {
		if a.Sketch == nil {
			a.Sketch = NewQuantileSketch(b.Sketch.Alpha())
		}
		a.Sketch.Merge(b.Sketch)
	}
	a.DeadlineTotal += b.DeadlineTotal
	a.DeadlineMissed += b.DeadlineMissed
	a.GoodputSum += b.GoodputSum
	a.GoodputN += b.GoodputN
	a.BytesAcked += b.BytesAcked
	a.Retransmits += b.Retransmits
	a.Timeouts += b.Timeouts
	a.PacketsRecv += b.PacketsRecv
	a.OutOfOrder += b.OutOfOrder
	a.DupAcksSent += b.DupAcksSent
	a.SumQueueDelay += b.SumQueueDelay
	a.DelaySamples += b.DelaySamples
}

// MissRatio returns DeadlineMissed/DeadlineTotal (0 when no flow
// carried a deadline).
func (a *FlowAgg) MissRatio() float64 {
	if a.DeadlineTotal == 0 {
		return 0
	}
	return float64(a.DeadlineMissed) / float64(a.DeadlineTotal)
}

// MeanGoodput returns the per-flow goodput average in bits/second.
func (a *FlowAgg) MeanGoodput() float64 {
	if a.GoodputN == 0 {
		return 0
	}
	return a.GoodputSum / float64(a.GoodputN)
}

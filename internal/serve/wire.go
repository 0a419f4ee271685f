package serve

import (
	"encoding/json"
	"fmt"

	"tlb/internal/sim"
)

// This file defines the JSON shapes the server speaks: one wireEvent
// per sim.ProgressEvent on the SSE stream, plus the small submit /
// status / cancel response bodies. Times go out as float milliseconds
// — the natural unit of FCTs in this paper — so clients never parse
// unit strings.

// wireClass is one flow class's live aggregate: the in-flight
// counterpart of the summary table's AFCT columns.
type wireClass struct {
	Class     string  `json:"class"`
	Count     int64   `json:"count"`
	Completed int64   `json:"completed"`
	AFCTMs    float64 `json:"afctMs"`
	P99Ms     float64 `json:"p99Ms"`
}

// wireUplink is one balanced port's live queue statistic.
type wireUplink struct {
	Label        string  `json:"label"`
	MeanQueueLen float64 `json:"meanQueueLen"`
	Drops        int64   `json:"drops"`
	FaultDrops   int64   `json:"faultDrops,omitempty"`
}

// wireEvent is one SSE payload: a snapshot or a per-scenario terminal.
type wireEvent struct {
	Run          string       `json:"run"`
	Kind         string       `json:"kind"`
	Index        int          `json:"index"`
	Total        int          `json:"total"`
	Completed    int          `json:"completed,omitempty"`
	Scenario     string       `json:"scenario"`
	Scheme       string       `json:"scheme,omitempty"`
	ElapsedMs    float64      `json:"elapsedMs"`
	SimTimeMs    float64      `json:"simTimeMs"`
	Events       uint64       `json:"events"`
	EventsPerSec float64      `json:"eventsPerSec"`
	FlowsStarted int64        `json:"flowsStarted"`
	FlowsDone    int64        `json:"flowsDone"`
	Error        string       `json:"error,omitempty"`
	Classes      []wireClass  `json:"classes,omitempty"`
	Uplinks      []wireUplink `json:"uplinks,omitempty"`
}

// wireEnd is the run-level terminal frame, sent after every scenario
// has its Done event.
type wireEnd struct {
	Run       string `json:"run"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	Canceled  bool   `json:"canceled,omitempty"`
	Error     string `json:"error,omitempty"`
}

// classNames orders the wire encoding of the three flow classes.
var classNames = [...]struct {
	class sim.Class
	name  string
}{
	{sim.AllFlows, "all"},
	{sim.ShortFlows, "short"},
	{sim.LongFlows, "long"},
}

// encodeEvent reduces a ProgressEvent to its wire shape.
func encodeEvent(runID string, ev sim.ProgressEvent) wireEvent {
	w := wireEvent{
		Run:          runID,
		Kind:         ev.Kind.String(),
		Index:        ev.Index,
		Total:        ev.Total,
		Completed:    ev.Completed,
		Scenario:     ev.Scenario,
		Scheme:       ev.Scheme,
		ElapsedMs:    ev.Elapsed.Seconds() * 1e3,
		SimTimeMs:    ev.SimTime.Millis(),
		Events:       ev.Events,
		EventsPerSec: ev.EventsPerSec,
		FlowsStarted: ev.FlowsStarted,
		FlowsDone:    ev.FlowsDone,
	}
	if ev.Err != nil {
		w.Error = ev.Err.Error()
	}
	if ev.Classes != nil {
		for _, cn := range classNames {
			a := ev.Classes.Agg(cn.class)
			wc := wireClass{
				Class:     cn.name,
				Count:     a.Count,
				Completed: a.Completed,
				AFCTMs:    a.FCT.Mean() * 1e3,
			}
			if a.Sketch != nil {
				wc.P99Ms = a.Sketch.Percentile(99) * 1e3
			}
			w.Classes = append(w.Classes, wc)
		}
	}
	for _, p := range ev.Uplinks {
		u := wireUplink{
			Label:      p.Label,
			Drops:      p.Queue.Dropped,
			FaultDrops: p.Queue.FaultDropped,
		}
		if arrivals := p.Queue.Enqueued + p.Queue.Dropped; arrivals > 0 {
			u.MeanQueueLen = float64(p.Queue.SumLenOnArrival) / float64(arrivals)
		}
		w.Uplinks = append(w.Uplinks, u)
	}
	return w
}

// sseFrame renders one named SSE frame with a JSON data line.
func sseFrame(event string, payload any) []byte {
	data, err := json.Marshal(payload)
	if err != nil {
		// Wire types marshal by construction; a failure here is a
		// programming error worth surfacing to the stream.
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return []byte("event: " + event + "\ndata: " + string(data) + "\n\n")
}

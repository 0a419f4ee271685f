package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tlb/internal/lb"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// fakeClock returns a deterministic Clock advancing 1ms per reading,
// so Elapsed fields are reproducible in assertions.
func fakeClock() Clock {
	var t time.Duration
	return func() time.Duration {
		t += time.Millisecond
		return t
	}
}

// sessionScenario is a run long enough (several ms of sim time) to
// cross multiple snapshot windows at a 1ms period.
func sessionScenario() Scenario {
	flows := make([]workload.Flow, 0, 8)
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.Flow{
			Src:   i % 4,
			Dst:   4 + i%4,
			Size:  400 * units.KB,
			Start: units.Time(i) * 50 * units.Microsecond,
		})
	}
	return Scenario{
		Name:         "session",
		Topology:     smallTopo(),
		Balancer:     lb.ECMP(),
		SchemeName:   "ecmp",
		Seed:         7,
		Flows:        flows,
		StopWhenDone: true,
		MaxTime:      units.Second,
	}
}

// recorder collects the session's event stream in order.
type recorder struct {
	events []ProgressEvent
}

func (r *recorder) OnProgress(ev ProgressEvent) { r.events = append(r.events, ev) }

func TestSessionCancelBeforeStart(t *testing.T) {
	rec := &recorder{}
	ss := NewSession(sessionScenario(), SessionOptions{
		Observer: rec,
		Clock:    fakeClock(),
	})
	ss.Cancel()
	res, err := ss.Run()
	if res != nil {
		t.Fatalf("canceled-before-start returned a Result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The simulation was never built: no snapshots, one Done event with
	// no progress at all.
	if len(rec.events) != 1 {
		t.Fatalf("got %d events, want exactly the Done event", len(rec.events))
	}
	ev := rec.events[0]
	if ev.Kind != ProgressDone || !errors.Is(ev.Err, ErrCanceled) {
		t.Fatalf("terminal event = %+v, want Done wrapping ErrCanceled", ev)
	}
	if ev.Events != 0 || ev.SimTime != 0 || ev.FlowsStarted != 0 {
		t.Fatalf("canceled-before-start event shows progress: %+v", ev)
	}
}

func TestSessionCancelMidRunDiscardsPartialResult(t *testing.T) {
	var ss *Session
	rec := &recorder{}
	// Cancel from inside the first snapshot callback: the run must stop
	// at the next batch boundary, not finish.
	obs := ObserverFunc(func(ev ProgressEvent) {
		rec.OnProgress(ev)
		if ev.Kind == ProgressSnapshot {
			ss.Cancel()
		}
	})
	ss = NewSession(sessionScenario(), SessionOptions{
		Observer:      obs,
		SnapshotEvery: 100 * units.Microsecond,
		Clock:         fakeClock(),
	})
	res, err := ss.Run()
	if res != nil {
		t.Fatalf("canceled run returned a partial Result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(rec.events) < 2 {
		t.Fatalf("got %d events, want at least one snapshot plus Done", len(rec.events))
	}
	first, last := rec.events[0], rec.events[len(rec.events)-1]
	if first.Kind != ProgressSnapshot {
		t.Fatalf("first event kind = %v, want snapshot", first.Kind)
	}
	if last.Kind != ProgressDone || !errors.Is(last.Err, ErrCanceled) {
		t.Fatalf("terminal event = %+v, want Done wrapping ErrCanceled", last)
	}
	// The run made real progress before stopping — the cancel was
	// mid-run, not before start.
	if last.Events == 0 || first.SimTime <= 0 {
		t.Fatalf("cancel-mid-run shows no progress: first=%+v last=%+v", first, last)
	}
}

// TestSessionObserverNeutral is the core determinism contract of the
// run-control split: attaching an observer (snapshots included) must
// not perturb the measurement in any way.
func TestSessionObserverNeutral(t *testing.T) {
	plain, err := Run(sessionScenario())
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	rec := &recorder{}
	observed, err := NewSession(sessionScenario(), SessionOptions{
		Observer:      rec,
		SnapshotEvery: 200 * units.Microsecond,
		Clock:         fakeClock(),
	}).Run()
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	if len(rec.events) < 2 {
		t.Fatalf("%d events, want snapshots plus Done", len(rec.events))
	}
	if plain.Stream == nil || len(plain.Flows) == 0 {
		t.Fatal("record-mode Result must carry both Stream and Flows for the comparison to cover them")
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observed Result differs from plain Result")
	}
}

// TestSessionSnapshotStream checks the progress stream with and
// without retained records: the run folds either way, so the stream is
// the same shape.
func TestSessionSnapshotStream(t *testing.T) {
	testSnapshotStream(t, false)
	testSnapshotStream(t, true)
}

func testSnapshotStream(t *testing.T, streamStats bool) {
	sc := sessionScenario()
	sc.StreamStats = streamStats
	rec := &recorder{}
	res, err := NewSession(sc, SessionOptions{
		Observer:      rec,
		SnapshotEvery: 200 * units.Microsecond,
		Clock:         fakeClock(),
		Index:         3,
		Total:         5,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.events) < 3 {
		t.Fatalf("only %d events; want several snapshots plus Done", len(rec.events))
	}
	var prevSim units.Time
	var prevEvents uint64
	for i, ev := range rec.events {
		terminal := i == len(rec.events)-1
		if terminal != (ev.Kind == ProgressDone) {
			t.Fatalf("event %d kind = %v; Done must be exactly the last event", i, ev.Kind)
		}
		if ev.Index != 3 || ev.Total != 5 {
			t.Fatalf("event %d index/total = %d/%d, want 3/5", i, ev.Index, ev.Total)
		}
		if ev.Scenario != "session" || ev.Scheme != "ecmp" {
			t.Fatalf("event %d names = %q/%q", i, ev.Scenario, ev.Scheme)
		}
		if ev.SimTime < prevSim {
			t.Fatalf("event %d sim time went backwards: %v < %v", i, ev.SimTime, prevSim)
		}
		if ev.Events < prevEvents {
			t.Fatalf("event %d executed-count went backwards", i)
		}
		if ev.Elapsed <= 0 {
			t.Fatalf("event %d Elapsed = %v, want positive (injected clock)", i, ev.Elapsed)
		}
		if ev.Classes == nil {
			t.Fatalf("streamStats=%v: event %d has no class aggregates", streamStats, i)
		}
		if len(ev.Uplinks) != len(res.Uplinks) {
			t.Fatalf("event %d has %d uplinks, want %d", i, len(ev.Uplinks), len(res.Uplinks))
		}
		prevSim, prevEvents = ev.SimTime, ev.Events
	}
	done := rec.events[len(rec.events)-1]
	if done.Err != nil {
		t.Fatalf("Done event carries error: %v", done.Err)
	}
	if done.FlowsDone != 8 || done.FlowsStarted != 8 {
		t.Fatalf("Done counters: started=%d done=%d, want 8/8", done.FlowsStarted, done.FlowsDone)
	}
	if done.SimTime != res.EndTime {
		t.Fatalf("Done SimTime %v != Result.EndTime %v", done.SimTime, res.EndTime)
	}
	// The terminal class aggregate is the Result's own, as a copy.
	if done.Classes == res.Stream || !reflect.DeepEqual(done.Classes, res.Stream) {
		t.Fatalf("streamStats=%v: Done aggregate is not an equal copy of Result.Stream", streamStats)
	}
}

// TestSessionSnapshotClassesAreCopies pins the "snapshots are exact
// Merge-able copies" contract: mutating a snapshot's aggregates must
// not bleed into later snapshots or the final Result.
func TestSessionSnapshotClassesAreCopies(t *testing.T) {
	var seen []int64
	obs := ObserverFunc(func(ev ProgressEvent) {
		if ev.Classes != nil {
			// Record the delivered value, then vandalize the copy; if a
			// later snapshot aliases this one, it arrives pre-vandalized.
			seen = append(seen, ev.Classes.Agg(AllFlows).Completed)
			ev.Classes.Agg(AllFlows).Completed = 999999
		}
	})
	res, err := NewSession(sessionScenario(), SessionOptions{
		Observer:      obs,
		SnapshotEvery: 200 * units.Microsecond,
		Clock:         fakeClock(),
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedCount(AllFlows) != 8 {
		t.Fatalf("vandalized snapshot bled into Result: completed=%d", res.CompletedCount(AllFlows))
	}
	for i, c := range seen {
		if c == 999999 {
			t.Fatalf("snapshot %d aliases an earlier snapshot", i)
		}
	}
}

func TestSessionValidationEmitsDone(t *testing.T) {
	sc := sessionScenario()
	sc.Balancer = nil
	rec := &recorder{}
	_, err := NewSession(sc, SessionOptions{Observer: rec, Clock: fakeClock()}).Run()
	if err == nil {
		t.Fatal("invalid scenario did not error")
	}
	if len(rec.events) != 1 || rec.events[0].Kind != ProgressDone || rec.events[0].Err == nil {
		t.Fatalf("validation failure events = %+v, want one Done carrying the error", rec.events)
	}
}

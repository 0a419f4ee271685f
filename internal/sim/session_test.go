package sim

import (
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
		Name:          "session",
		Topology:      smallTopo(),
		Balancer:      lb.ECMP(),
		SchemeName:    "ecmp",
		Seed:          7,
		FlowSourceNew: workload.Arrivals(flows),
		MaxTime:       units.Second,
	}
}

// recorder collects the session's event stream in order.
type recorder struct {
	events []ProgressEvent
}

func (r *recorder) OnProgress(ev ProgressEvent) { r.events = append(r.events, ev) }

// TestSessionObserverNeutral is the core determinism contract of the
// run-control split: attaching an observer (snapshots included) must
// not perturb the measurement in any way, and slicing the run into
// snapshot windows executes the same events as running it in one
// engine call.
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
	if plain.Stream == nil || plain.Count(AllFlows) == 0 {
		t.Fatal("the Result must carry a non-empty Stream for the comparison to cover it")
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observed Result differs from plain Result")
	}
	var whole ProgressEvent
	unsliced, err := NewSession(sessionScenario(), SessionOptions{
		Observer: ObserverFunc(func(ev ProgressEvent) { whole = ev }),
	}).Run()
	if err != nil {
		t.Fatalf("unsliced run: %v", err)
	}
	if !reflect.DeepEqual(plain, unsliced) {
		t.Fatalf("snapshot-free Result differs from plain Result")
	}
	sliced := rec.events[len(rec.events)-1]
	if whole.Kind != ProgressDone || whole.Events == 0 || whole.Events != sliced.Events {
		t.Fatalf("Done events: %d in one engine call, %d in 200µs windows", whole.Events, sliced.Events)
	}
}

// TestSessionSnapshotStream checks the shape of the progress stream:
// snapshots in order, one per window the run outlasts, then Done.
func TestSessionSnapshotStream(t *testing.T) {
	rec := &recorder{}
	res, err := NewSession(sessionScenario(), SessionOptions{
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
	var prevEvents uint64
	for i, ev := range rec.events {
		terminal := i == len(rec.events)-1
		if terminal != (ev.Kind == ProgressDone) {
			t.Fatalf("event %d kind = %v; Done must be exactly the last event", i, ev.Kind)
		}
		if ev.Index != 3 || ev.Total != 5 {
			t.Fatalf("event %d index/total = %d/%d, want 3/5", i, ev.Index, ev.Total)
		}
		if ev.Scenario != "session" {
			t.Fatalf("event %d names %q", i, ev.Scenario)
		}
		if ev.Events < prevEvents {
			t.Fatalf("event %d executed-count went backwards", i)
		}
		if ev.Elapsed <= 0 {
			t.Fatalf("event %d Elapsed = %v, want positive (injected clock)", i, ev.Elapsed)
		}
		prevEvents = ev.Events
	}
	done := rec.events[len(rec.events)-1]
	if done.Err != nil {
		t.Fatalf("Done event carries error: %v", done.Err)
	}
	// One snapshot closes each 200µs window the run outlasts; the
	// window holding its last completion ends it.
	if snaps, want := len(rec.events)-1, int((res.EndTime-1)/(200*units.Microsecond)); snaps != want {
		t.Fatalf("%d snapshots for a %v run, want %d", snaps, res.EndTime, want)
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

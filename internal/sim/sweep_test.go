package sim

import (
	"errors"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/units"
	"tlb/internal/workload"
)

func sweepScenario(name string, seed uint64) Scenario {
	return Scenario{
		Name: name, Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: seed,
		Flows: []workload.Flow{
			{Src: 0, Dst: 4, Size: 40 * units.KB, Start: 0},
		},
		StopWhenDone: true, MaxTime: 10 * units.Second,
	}
}

// TestRunSweepAggregatesAllErrors: a batch with several broken
// scenarios must report every failure (index and name), not just the
// first, while still returning the results that did complete.
func TestRunSweepAggregatesAllErrors(t *testing.T) {
	bad1 := sweepScenario("bad-one", 1)
	bad1.Flows = nil // "has no flows"
	bad2 := sweepScenario("bad-two", 2)
	bad2.Balancer = nil // "has no balancer"
	scenarios := []Scenario{sweepScenario("good-a", 3), bad1, sweepScenario("good-b", 4), bad2}

	results, err := RunSweep(scenarios, SweepOptions{Workers: 4})
	if err == nil {
		t.Fatal("broken batch returned nil error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SweepError", err)
	}
	if len(se.Failures) != 2 {
		t.Fatalf("%d failures reported, want 2: %v", len(se.Failures), err)
	}
	if se.Failures[0].Index != 1 || se.Failures[0].Scenario != "bad-one" {
		t.Fatalf("first failure = %+v", se.Failures[0])
	}
	if se.Failures[1].Index != 3 || se.Failures[1].Scenario != "bad-two" {
		t.Fatalf("second failure = %+v", se.Failures[1])
	}
	for _, name := range []string{"bad-one", "bad-two", "no flows", "no balancer"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error message missing %q: %v", name, err)
		}
	}
	// Completed scenarios are still delivered alongside the error.
	if results[0] == nil || results[2] == nil {
		t.Fatal("successful results dropped from a partially failed sweep")
	}
	if results[1] != nil || results[3] != nil {
		t.Fatal("failed scenarios produced results")
	}
}

// TestRunSweepProgress: with snapshots off the observer sees exactly
// one Done event per scenario, with a monotonically increasing
// Completed counter and per-scenario metadata.
func TestRunSweepProgress(t *testing.T) {
	scenarios := []Scenario{
		sweepScenario("p0", 1), sweepScenario("p1", 2), sweepScenario("p2", 3),
	}
	var seen []ProgressEvent
	_, err := RunSweep(scenarios, SweepOptions{
		Workers:       2,
		Observer:      ObserverFunc(func(p ProgressEvent) { seen = append(seen, p) }),
		SnapshotEvery: NoSnapshots,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(scenarios) {
		t.Fatalf("%d progress calls, want %d", len(seen), len(scenarios))
	}
	indices := map[int]bool{}
	for i, p := range seen {
		if p.Kind != ProgressDone || p.Completed != i+1 || p.Total != len(scenarios) {
			t.Fatalf("progress %d: completed %d/%d", i, p.Completed, p.Total)
		}
		if p.Err != nil {
			t.Fatalf("unexpected failure: %v", p.Err)
		}
		if p.Scenario != scenarios[p.Index].Name {
			t.Fatalf("progress name %q for index %d", p.Scenario, p.Index)
		}
		indices[p.Index] = true
	}
	if len(indices) != len(scenarios) {
		t.Fatalf("progress covered %d distinct scenarios, want %d", len(indices), len(scenarios))
	}
}

// TestRunSweepEmptyBatch: a zero-length batch is a no-op, not a hang.
func TestRunSweepEmptyBatch(t *testing.T) {
	results, err := RunSweep(nil, SweepOptions{Workers: 4})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
}

// TestRunSweepRecoversPanickingScenario pins the worker-pool bugfix:
// a panic inside a scenario's Run used to kill its worker, leaving the
// unbuffered job dispatch blocked forever. With Workers:1 and the
// panicking scenario first, this test deadlocked before the recover —
// now the panic becomes that scenario's SweepFailure and the rest of
// the batch still runs.
func TestRunSweepRecoversPanickingScenario(t *testing.T) {
	boom := sweepScenario("boom", 1)
	boom.Balancer = func(s *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		panic("factory exploded")
	}
	scenarios := []Scenario{boom, sweepScenario("after-a", 2), sweepScenario("after-b", 3)}

	var seen []ProgressEvent
	results, err := RunSweep(scenarios, SweepOptions{
		Workers:       1,
		Observer:      ObserverFunc(func(p ProgressEvent) { seen = append(seen, p) }),
		SnapshotEvery: NoSnapshots,
	})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *SweepError", err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Index != 0 {
		t.Fatalf("failures = %+v, want exactly the panicking scenario", se.Failures)
	}
	for _, want := range []string{"boom", "panicked", "factory exploded"} {
		if !strings.Contains(se.Failures[0].Err.Error(), want) {
			t.Fatalf("panic failure missing %q: %v", want, se.Failures[0].Err)
		}
	}
	if results[0] != nil || results[1] == nil || results[2] == nil {
		t.Fatal("scenarios after the panic did not complete")
	}
	// The synthesized terminal event keeps the one-Done-per-scenario
	// invariant: the observer still hears all three.
	if len(seen) != 3 {
		t.Fatalf("%d progress calls, want 3", len(seen))
	}
	if seen[0].Index != 0 || seen[0].Err == nil {
		t.Fatalf("first progress call = %+v, want the panic failure", seen[0])
	}
}

// TestSweepErrorTraversal: errors.Is and errors.As reach the
// individual failures of a multi-failure sweep through
// SweepError.Unwrap.
func TestSweepErrorTraversal(t *testing.T) {
	bad1 := sweepScenario("bad-one", 1)
	bad1.Flows = nil
	bad2 := sweepScenario("bad-two", 2)
	bad2.Balancer = nil
	_, err := RunSweep([]Scenario{bad1, sweepScenario("ok", 3), bad2}, SweepOptions{Workers: 2})

	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As found no *SweepError in %T", err)
	}
	unwrapped := se.Unwrap()
	if len(unwrapped) != 2 {
		t.Fatalf("Unwrap returned %d errors, want 2", len(unwrapped))
	}
	for i, f := range se.Failures {
		if unwrapped[i] != f.Err {
			t.Fatalf("Unwrap()[%d] is not Failures[%d].Err", i, i)
		}
		// errors.Is must find each leaf through the multi-error Unwrap.
		if !errors.Is(err, f.Err) {
			t.Fatalf("errors.Is(err, Failures[%d].Err) = false", i)
		}
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("errors.Is matched ErrCanceled on a non-canceled sweep")
	}
}

// TestSweepCancelBeforeRun: canceling an unstarted sweep fails every
// scenario with ErrCanceled without running any of them.
func TestSweepCancelBeforeRun(t *testing.T) {
	sw := NewSweep([]Scenario{sweepScenario("c0", 1), sweepScenario("c1", 2)}, SweepOptions{Workers: 2})
	sw.Cancel()
	results, err := sw.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled through the SweepError", err)
	}
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 2 {
		t.Fatalf("err = %v, want both scenarios failed", err)
	}
	for i, res := range results {
		if res != nil {
			t.Fatalf("canceled scenario %d produced a result", i)
		}
	}
}

// TestSweepCancelMidRun: Cancel issued from inside an observer
// callback (the serve layer's shape) stops the running session at its
// next batch boundary and fails the not-yet-started scenarios without
// building them.
func TestSweepCancelMidRun(t *testing.T) {
	long := sessionScenario()
	long.Name = "long"
	scenarios := []Scenario{long, sweepScenario("later-a", 2), sweepScenario("later-b", 3)}

	var sw *Sweep
	var dones int
	obs := ObserverFunc(func(ev ProgressEvent) {
		if ev.Kind == ProgressSnapshot {
			sw.Cancel()
		}
		if ev.Kind == ProgressDone {
			dones++
		}
	})
	sw = NewSweep(scenarios, SweepOptions{
		Workers:       1,
		Observer:      obs,
		SnapshotEvery: 100 * units.Microsecond,
		Clock:         fakeClock(),
	})
	results, err := sw.Run()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var se *SweepError
	if !errors.As(err, &se) || len(se.Failures) != 3 {
		t.Fatalf("err = %v, want all three scenarios canceled", err)
	}
	for i, res := range results {
		if res != nil {
			t.Fatalf("canceled sweep retained a result at %d", i)
		}
	}
	if dones != 3 {
		t.Fatalf("%d Done events, want one per scenario", dones)
	}
}

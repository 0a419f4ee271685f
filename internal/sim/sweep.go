package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"tlb/internal/units"
)

// This file is the shared sweep runner every experiment submits its
// scenario batches to. Each scenario is its own single-threaded
// simulation; the parallelism is across runs, which is where a
// parameter sweep's wall-clock goes on multicore machines.
//
// Determinism: a scenario owns its seed and its simulation owns all of
// its state, so the Result of a scenario does not depend on which
// worker ran it or on how many workers there were. Results are always
// returned in input order; callers reduce them in that order and get
// byte-identical figures at any worker count (enforced by
// TestParallelSerialIdenticalFigures in internal/experiments).
//
// Each scenario runs inside a Session (session.go): the sweep is a
// pool of sessions plus one serialized observer stream.

// SweepOptions configure one sweep.
type SweepOptions struct {
	// Workers is the number of scenarios executed concurrently;
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Observer, when non-nil, receives the merged progress stream of
	// every session in the sweep: periodic snapshots plus one Done per
	// scenario, serialized under the sweep's lock (so one instance
	// needs no locking of its own), with Completed/Total stamped on
	// Done events. It runs on worker goroutines; keep it cheap.
	Observer Observer
	// SnapshotEvery is the per-session snapshot period in simulation
	// time; <= 0 keeps only the Done events, for callers that print
	// per-scenario completions. Only meaningful with an Observer.
	SnapshotEvery units.Time
}

// SweepFailure is one failed scenario of a sweep.
type SweepFailure struct {
	Index    int
	Scenario string
	Err      error
}

// SweepError aggregates every failed scenario of a sweep, so a batch
// with several broken configurations reports all of them instead of
// just the first.
type SweepError struct {
	Failures []SweepFailure
}

func (e *SweepError) Error() string {
	if len(e.Failures) == 1 {
		f := e.Failures[0]
		return fmt.Sprintf("scenario %q (#%d): %v", f.Scenario, f.Index, f.Err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios failed:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %q (#%d): %v", f.Scenario, f.Index, f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is / errors.As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// RunSweep executes the scenarios on a worker pool and returns their
// results in input order. On failure the returned error is a
// *SweepError listing every failed scenario; the result slice still
// holds whatever completed. A panicking scenario is recovered in its
// worker and reported as that scenario's failure — it cannot wedge the
// pool (the job dispatch below blocks until a worker receives, so a
// dead worker would deadlock the sweep).
func RunSweep(scenarios []Scenario, opt SweepOptions) ([]*Result, error) {
	sw := &sweep{
		scenarios: scenarios,
		opt:       opt,
		clock:     WallClock(),
		results:   make([]*Result, len(scenarios)),
		errs:      make([]error, len(scenarios)),
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sw.runOne(i)
			}
		}()
	}
	for i := range scenarios {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var failures []SweepFailure
	for i, err := range sw.errs {
		if err != nil {
			failures = append(failures, SweepFailure{Index: i, Scenario: scenarios[i].Name, Err: err})
		}
	}
	if len(failures) > 0 {
		return sw.results, &SweepError{Failures: failures}
	}
	return sw.results, nil
}

// sweep is one RunSweep call's shared state.
type sweep struct {
	scenarios []Scenario
	opt       SweepOptions
	clock     Clock
	results   []*Result
	errs      []error

	// mu serializes the observer stream and guards the completion
	// counter.
	mu        sync.Mutex
	completed int
}

// runOne executes scenario i inside its own session, converting a
// panic into that scenario's error so the worker survives to drain
// the job channel.
func (sw *sweep) runOne(i int) {
	start := sw.clock()
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("sim: scenario %q panicked: %v\n%s", sw.scenarios[i].Name, r, debug.Stack())
			sw.results[i], sw.errs[i] = nil, err
			// The session never reached its Done event; synthesize the
			// terminal event so stream consumers still see one terminal
			// event per scenario.
			ev := ProgressEvent{
				Kind:     ProgressDone,
				Index:    i,
				Total:    len(sw.scenarios),
				Scenario: sw.scenarios[i].Name,
				Elapsed:  sw.clock() - start,
				Err:      err,
			}
			sw.observe(ev)
		}
	}()
	var obs Observer
	if sw.opt.Observer != nil {
		obs = ObserverFunc(sw.observe)
	}
	sw.results[i], sw.errs[i] = NewSession(sw.scenarios[i], SessionOptions{
		Observer:      obs,
		SnapshotEvery: sw.opt.SnapshotEvery,
		Clock:         sw.clock,
		Index:         i,
		Total:         len(sw.scenarios),
	}).Run()
}

// observe serializes the sessions' event streams into the sweep's
// Observer, stamping the completion counter onto Done events.
func (sw *sweep) observe(ev ProgressEvent) {
	if sw.opt.Observer == nil {
		return
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if ev.Kind == ProgressDone {
		sw.completed++
		ev.Completed = sw.completed
	}
	sw.opt.Observer.OnProgress(ev)
}

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
// pool of sessions plus one serialized observer stream, and Cancel
// reaches every running and not-yet-started session.

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
	// time (0 means DefaultSnapshotEvery; NoSnapshots keeps only the
	// Done events, for callers that print per-scenario completions).
	// Only meaningful with an Observer.
	SnapshotEvery units.Time
	// Clock supplies wall time for Elapsed fields; nil means
	// WallClock().
	Clock Clock
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

// Sweep is the handle for one scenario batch: Run executes it on the
// worker pool, Cancel (from any goroutine) stops every running session
// at its next batch boundary and prevents unstarted scenarios from
// building at all.
type Sweep struct {
	scenarios []Scenario
	opt       SweepOptions
	clock     Clock
	results   []*Result
	errs      []error

	mu       sync.Mutex // guards sessions + canceled
	sessions []*Session
	canceled bool

	// emitMu serializes the observer stream and guards the
	// completion counter. It is distinct from mu so Cancel (which takes
	// mu) is safe to call from inside a callback (which holds emitMu).
	emitMu    sync.Mutex
	completed int
}

// NewSweep prepares a sweep over the scenarios. The slice is retained;
// do not mutate it until Run returns.
func NewSweep(scenarios []Scenario, opt SweepOptions) *Sweep {
	if opt.Clock == nil {
		opt.Clock = WallClock()
	}
	return &Sweep{
		scenarios: scenarios,
		opt:       opt,
		clock:     opt.Clock,
		results:   make([]*Result, len(scenarios)),
		errs:      make([]error, len(scenarios)),
		sessions:  make([]*Session, len(scenarios)),
	}
}

// Cancel requests cooperative cancellation of the whole sweep: every
// running session stops at its next event-batch boundary, and every
// scenario not yet started fails with ErrCanceled without running.
// Safe from any goroutine — including an Observer callback — and
// idempotent.
func (sw *Sweep) Cancel() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.canceled = true
	for _, ss := range sw.sessions {
		if ss != nil {
			ss.Cancel()
		}
	}
}

// Run executes the sweep and returns the results in input order. On
// failure the returned error is a *SweepError listing every failed
// scenario; the result slice still holds whatever completed. A
// panicking scenario is recovered in its worker and reported as that
// scenario's failure — it cannot wedge the pool (the job dispatch
// below blocks until a worker receives, so a dead worker would
// deadlock the sweep).
func (sw *Sweep) Run() ([]*Result, error) {
	workers := sw.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sw.scenarios) {
		workers = len(sw.scenarios)
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
	for i := range sw.scenarios {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var failures []SweepFailure
	for i, err := range sw.errs {
		if err != nil {
			failures = append(failures, SweepFailure{Index: i, Scenario: sw.scenarios[i].Name, Err: err})
		}
	}
	if len(failures) > 0 {
		return sw.results, &SweepError{Failures: failures}
	}
	return sw.results, nil
}

// runOne executes scenario i inside its own session, converting a
// panic into that scenario's error so the worker survives to drain
// the job channel.
func (sw *Sweep) runOne(i int) {
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
				Scheme:   sw.scenarios[i].SchemeName,
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
	ss := NewSession(sw.scenarios[i], SessionOptions{
		Observer:      obs,
		SnapshotEvery: sw.opt.SnapshotEvery,
		Clock:         sw.clock,
		Index:         i,
		Total:         len(sw.scenarios),
	})
	sw.mu.Lock()
	sw.sessions[i] = ss
	if sw.canceled {
		ss.Cancel()
	}
	sw.mu.Unlock()
	sw.results[i], sw.errs[i] = ss.Run()
}

// observe serializes the sessions' event streams into the sweep's
// Observer, stamping the completion counter onto Done events.
func (sw *Sweep) observe(ev ProgressEvent) {
	if sw.opt.Observer == nil {
		return
	}
	sw.emitMu.Lock()
	defer sw.emitMu.Unlock()
	if ev.Kind == ProgressDone {
		sw.completed++
		ev.Completed = sw.completed
	}
	sw.opt.Observer.OnProgress(ev)
}

// RunSweep executes the scenarios on a worker pool and returns their
// results in input order: NewSweep(...).Run() for callers that do not
// need the cancellation handle.
func RunSweep(scenarios []Scenario, opt SweepOptions) ([]*Result, error) {
	return NewSweep(scenarios, opt).Run()
}

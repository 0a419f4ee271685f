// Package serve is tlbsim's run-submission server: POST a scenario
// spec (or an array of them — a campaign), watch the live progress
// stream over SSE, fetch the self-contained HTML report, cancel with
// DELETE. It is a thin shell over the sim session layer: one sweep per
// submitted run, one executor goroutine per sweep (the package's only
// goroutine, in this file), everything else served from retained
// event frames under a lock.
//
//	POST   /runs              submit spec JSON  → {"id": ...}
//	GET    /runs/{id}         status JSON
//	GET    /runs/{id}/events  SSE: snapshot* done* end (replays from the start)
//	GET    /runs/{id}/report  self-contained HTML report (after completion)
//	DELETE /runs/{id}         cancel via the sweep handle
//
// Determinism note: the server is run-control, not measurement — it
// attaches observers and cancels sessions, both of which are
// guaranteed result-neutral by the session layer, so a spec submitted
// here produces byte-identical figures to the same spec under
// cmd/tlbsim -spec.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"tlb/internal/report"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/units"
)

// Options configure a Server.
type Options struct {
	// Workers bounds concurrent scenarios per submitted run (<= 0:
	// GOMAXPROCS, as in sim.SweepOptions).
	Workers int
	// SnapshotEvery is the SSE snapshot period in simulation time
	// (0: sim.DefaultSnapshotEvery).
	SnapshotEvery units.Time
	// Clock supplies wall time for event Elapsed fields; nil means
	// sim.WallClock(). Injected so tests control the clock seam.
	Clock sim.Clock
}

// Server routes run submissions onto the sim sweep layer. It is an
// http.Handler; Close cancels every run and joins the executors.
type Server struct {
	opt Options
	mux *http.ServeMux
	wg  sync.WaitGroup

	mu     sync.Mutex
	runs   map[string]*run
	order  []*run
	nextID int
	closed bool
}

// run is one submitted campaign and everything its handlers need:
// the sweep handle for cancel, pre-rendered SSE frames for replay,
// and the per-spec results for the report.
type run struct {
	id    string
	specs []*spec.Spec
	sweep *sim.Sweep

	mu        sync.Mutex
	cond      *sync.Cond
	frames    [][]byte // every SSE frame so far, in stream order
	completed int
	done      bool
	canceled  bool
	results   []*sim.Result
	err       error
}

// New builds a server. Callers own the http.Server / listener around
// it (see cmd/tlbsim -serve).
func New(opt Options) *Server {
	if opt.Clock == nil {
		opt.Clock = sim.WallClock()
	}
	s := &Server{opt: opt, runs: make(map[string]*run)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /runs/{id}/report", s.handleReport)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every run and waits for their executors; the server
// rejects new submissions afterwards. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for _, rn := range s.order {
		rn.cancel()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// parseSpecs decodes a request body holding one spec object or an
// array of them, applying the spec layer's strict decoding and
// JSON-path validation per element.
func parseSpecs(body []byte) ([]*spec.Spec, error) {
	trimmed := strings.TrimSpace(string(body))
	if trimmed == "" {
		return nil, errors.New("empty request body")
	}
	var raws []json.RawMessage
	if trimmed[0] == '[' {
		if err := json.Unmarshal([]byte(trimmed), &raws); err != nil {
			return nil, fmt.Errorf("campaign array: %v", err)
		}
	} else {
		raws = []json.RawMessage{json.RawMessage(trimmed)}
	}
	if len(raws) == 0 {
		return nil, errors.New("campaign array is empty")
	}
	specs := make([]*spec.Spec, len(raws))
	for i, raw := range raws {
		sp, err := spec.LoadBytes(raw)
		if err == nil {
			err = sp.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("specs[%d]: %w", i, err)
		}
		specs[i] = sp
	}
	return specs, nil
}

// runID picks the submission's id: the first explicit spec runId, or
// the next server-assigned r<n>. Caller holds s.mu.
func (s *Server) runID(specs []*spec.Spec) (string, error) {
	for _, sp := range specs {
		if sp.RunID == "" {
			continue
		}
		if !validID(sp.RunID) {
			return "", fmt.Errorf("runId %q: use 1-64 letters, digits, '-' or '_'", sp.RunID)
		}
		if _, dup := s.runs[sp.RunID]; dup {
			return "", fmt.Errorf("runId %q already exists", sp.RunID)
		}
		return sp.RunID, nil
	}
	s.nextID++
	return fmt.Sprintf("r%d", s.nextID), nil
}

func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	specs, err := parseSpecs(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	scenarios := make([]sim.Scenario, len(specs))
	for i, sp := range specs {
		if scenarios[i], err = sp.Compile(); err != nil {
			http.Error(w, fmt.Sprintf("specs[%d]: %v", i, err), http.StatusBadRequest)
			return
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "server closing", http.StatusServiceUnavailable)
		return
	}
	id, err := s.runID(specs)
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	for _, sp := range specs {
		sp.RunID = id // echoed in status, events and report rows
	}
	rn := &run{id: id, specs: specs}
	rn.cond = sync.NewCond(&rn.mu)
	rn.sweep = sim.NewSweep(scenarios, sim.SweepOptions{
		Workers:       s.opt.Workers,
		Observer:      sim.ObserverFunc(rn.observe),
		SnapshotEvery: s.opt.SnapshotEvery,
		Clock:         s.opt.Clock,
	})
	s.runs[id] = rn
	s.order = append(s.order, rn)
	s.wg.Add(1)
	s.mu.Unlock()

	go func() { // the package's one goroutine: this run's executor
		defer s.wg.Done()
		results, err := rn.sweep.Run()
		rn.finish(results, err)
	}()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]any{
		"id":        id,
		"scenarios": len(specs),
		"status":    "/runs/" + id,
		"events":    "/runs/" + id + "/events",
		"report":    "/runs/" + id + "/report",
	})
}

// observe is the run's sim.Observer: it renders each event to an SSE
// frame and wakes the streams. Calls are serialized by the sweep.
func (rn *run) observe(ev sim.ProgressEvent) {
	kind := ev.Kind.String()
	frame := sseFrame(kind, encodeEvent(rn.id, ev))
	rn.mu.Lock()
	if ev.Kind == sim.ProgressDone {
		rn.completed = ev.Completed
	}
	rn.frames = append(rn.frames, frame)
	rn.mu.Unlock()
	rn.cond.Broadcast()
}

// finish records the sweep's outcome and appends the run-level
// terminal frame.
func (rn *run) finish(results []*sim.Result, err error) {
	rn.mu.Lock()
	rn.results = results
	rn.err = err
	end := wireEnd{Run: rn.id, Completed: rn.completed, Total: len(rn.specs), Canceled: rn.canceled}
	if err != nil {
		end.Error = err.Error()
	}
	rn.frames = append(rn.frames, sseFrame("end", end))
	rn.done = true
	rn.mu.Unlock()
	rn.cond.Broadcast()
}

// cancel requests cooperative cancellation of the run's sweep.
func (rn *run) cancel() {
	rn.mu.Lock()
	rn.canceled = true
	rn.mu.Unlock()
	rn.sweep.Cancel()
	rn.cond.Broadcast()
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *run {
	s.mu.Lock()
	rn := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if rn == nil {
		http.Error(w, "no such run", http.StatusNotFound)
	}
	return rn
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(w, r)
	if rn == nil {
		return
	}
	rn.mu.Lock()
	st := map[string]any{
		"id":        rn.id,
		"total":     len(rn.specs),
		"completed": rn.completed,
		"done":      rn.done,
		"canceled":  rn.canceled,
	}
	if rn.err != nil {
		st["error"] = rn.err.Error()
	}
	rn.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(w, r)
	if rn == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Wake the Wait below when the client goes away.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, rn.cond.Broadcast)
	defer stop()

	cursor := 0
	for {
		rn.mu.Lock()
		for cursor >= len(rn.frames) && !rn.done && ctx.Err() == nil {
			rn.cond.Wait()
		}
		frames := rn.frames[cursor:]
		cursor = len(rn.frames)
		done := rn.done
		rn.mu.Unlock()
		for _, f := range frames {
			if _, err := w.Write(f); err != nil {
				return
			}
		}
		if len(frames) > 0 {
			flusher.Flush()
		}
		if ctx.Err() != nil || (done && len(frames) == 0) {
			return
		}
		if done {
			// Drain check: loop once more to pick up frames appended
			// between our snapshot and done (finish appends before done).
			continue
		}
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(w, r)
	if rn == nil {
		return
	}
	rn.mu.Lock()
	done := rn.done
	results := rn.results
	runErr := rn.err
	rn.mu.Unlock()
	if !done {
		http.Error(w, "run still in progress; wait for the SSE end event", http.StatusConflict)
		return
	}
	c := report.Campaign{Title: "tlbsim run " + rn.id}
	errAt := make([]error, len(rn.specs))
	var se *sim.SweepError
	if errors.As(runErr, &se) {
		for _, f := range se.Failures {
			if f.Index >= 0 && f.Index < len(errAt) {
				errAt[f.Index] = f.Err
			}
		}
	}
	// outputs.report selects rows; a campaign where no spec opts in
	// reports everything.
	selective := false
	for _, sp := range rn.specs {
		if sp.Outputs.Report {
			selective = true
			break
		}
	}
	for i, sp := range rn.specs {
		if selective && !sp.Outputs.Report {
			continue
		}
		item := report.Item{
			Scenario: sp.Name,
			Scheme:   sp.Scheme.Label,
			Err:      errAt[i],
		}
		if item.Scheme == "" {
			item.Scheme = sp.Scheme.Name
		}
		if results != nil {
			item.Result = results[i]
		}
		c.Items = append(c.Items, item)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(report.HTML(c))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	rn := s.lookup(w, r)
	if rn == nil {
		return
	}
	rn.cancel()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": rn.id, "canceled": true})
}

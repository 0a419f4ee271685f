// Package trace provides structured event tracing for simulation runs:
// a ring- or stream-backed recorder that components publish packet and
// flow events to, with filtering, pretty-printing and summary
// statistics. It is the simulator's equivalent of a pcap + switch
// counter dump, and exists for debugging experiments — production runs
// leave it disabled (nil Tracer receivers are no-ops throughout).
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tlb/internal/netem"
	"tlb/internal/units"
)

// EventKind classifies trace events.
type EventKind uint8

// Event kinds.
const (
	// Enqueue: a packet was admitted to a port queue.
	Enqueue EventKind = iota
	// Drop: a packet was rejected by a full queue.
	Drop
	// Deliver: a packet reached a host.
	Deliver
	// FlowStart / FlowEnd: transport-level flow lifecycle.
	FlowStart
	FlowEnd
	// Reroute: a load balancer moved a flow to a new port.
	Reroute
	// Retransmit: the transport resent a segment.
	Retransmit
	// Mark: a packet was CE-marked.
	Mark
	// LinkFault: the fault injector changed a link's state (down or
	// restore); the note carries the operation.
	LinkFault
)

//simlint:allow sharedstate(immutable name table; written only at init)
var kindNames = [...]string{
	Enqueue:    "ENQ",
	Drop:       "DROP",
	Deliver:    "DLV",
	FlowStart:  "FSTART",
	FlowEnd:    "FEND",
	Reroute:    "REROUTE",
	Retransmit: "RETX",
	Mark:       "MARK",
	LinkFault:  "FAULT",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one recorded occurrence.
type Event struct {
	At    units.Time
	Kind  EventKind
	Flow  netem.FlowID
	Where string // port label, host name, ...
	Seq   units.Bytes
	Note  string
}

// Format renders the event as one log line.
func (e Event) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12v %-8s %-14v", e.At, e.Kind, e.Flow)
	if e.Where != "" {
		fmt.Fprintf(&b, " @%s", e.Where)
	}
	if e.Kind == Enqueue || e.Kind == Deliver || e.Kind == Retransmit {
		fmt.Fprintf(&b, " seq=%d", e.Seq)
	}
	if e.Note != "" {
		fmt.Fprintf(&b, " (%s)", e.Note)
	}
	return b.String()
}

// Filter selects which events a tracer keeps. Zero-valued fields match
// everything.
type Filter struct {
	// Kinds restricts to the given kinds (empty = all).
	Kinds []EventKind
	// Flow restricts to one flow in either direction.
	Flow *netem.FlowID
	// After/Before bound the time window (zero = unbounded).
	After, Before units.Time
	// WherePrefix restricts to locations with this prefix (e.g.
	// "leaf0->").
	WherePrefix string
}

// Match reports whether the event passes the filter.
func (f *Filter) Match(e Event) bool {
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if e.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Flow != nil && e.Flow != *f.Flow && e.Flow != f.Flow.Reversed() {
		return false
	}
	if f.After != 0 && e.At < f.After {
		return false
	}
	if f.Before != 0 && e.At >= f.Before {
		return false
	}
	if f.WherePrefix != "" && !strings.HasPrefix(e.Where, f.WherePrefix) {
		return false
	}
	return true
}

// Tracer records events. A nil *Tracer is a valid no-op recorder, so
// components can hold one unconditionally.
type Tracer struct {
	filter Filter
	// ring buffer of the most recent `cap` events; cap <= 0 keeps
	// everything.
	events []Event
	max    int
	head   int
	full   bool
	counts map[EventKind]int64
}

// New creates a tracer retaining at most max events (<= 0: unbounded).
func New(max int) *Tracer {
	return &Tracer{max: max, counts: make(map[EventKind]int64)}
}

// WithFilter sets the keep-filter and returns the tracer.
func (t *Tracer) WithFilter(f Filter) *Tracer {
	t.filter = f
	return t
}

// Record stores one event (respecting the filter). Safe on nil.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	if !t.filter.Match(e) {
		return
	}
	t.counts[e.Kind]++
	if t.max <= 0 {
		t.events = append(t.events, e)
		return
	}
	if len(t.events) < t.max {
		t.events = append(t.events, e)
		return
	}
	t.events[t.head] = e
	t.head = (t.head + 1) % t.max
	t.full = true
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.max <= 0 || !t.full {
		out := make([]Event, len(t.events))
		copy(out, t.events)
		return out
	}
	out := make([]Event, 0, t.max)
	out = append(out, t.events[t.head:]...)
	out = append(out, t.events[:t.head]...)
	return out
}

// Count returns how many events of the kind were recorded (including
// ones that have since rotated out of the ring).
func (t *Tracer) Count(k EventKind) int64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// Dump writes the retained events to w, one line each.
func (t *Tracer) Dump(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e.Format()); err != nil {
			return err
		}
	}
	return nil
}

// Summary writes per-kind counts plus the busiest locations.
func (t *Tracer) Summary(w io.Writer) error {
	if t == nil {
		return nil
	}
	kinds := make([]EventKind, 0, len(t.counts))
	//simlint:allow maporder(keys are collected and sorted on the next line before any output)
	for k := range t.counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		if _, err := fmt.Fprintf(w, "%-8s %d\n", k, t.counts[k]); err != nil {
			return err
		}
	}
	where := map[string]int{}
	for _, e := range t.Events() {
		if e.Where != "" {
			where[e.Where]++
		}
	}
	type wc struct {
		w string
		n int
	}
	ws := make([]wc, 0, len(where))
	//simlint:allow maporder(entries are collected and sorted by count then name before any output)
	for k, v := range where {
		ws = append(ws, wc{k, v})
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].n != ws[j].n {
			return ws[i].n > ws[j].n
		}
		return ws[i].w < ws[j].w
	})
	for i, x := range ws {
		if i >= 5 {
			break
		}
		if _, err := fmt.Fprintf(w, "hot %-24s %d\n", x.w, x.n); err != nil {
			return err
		}
	}
	return nil
}

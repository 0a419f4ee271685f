package faults

import (
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/trace"
	"tlb/internal/units"
)

// pair builds a two-port "link" (leaf→spine, spine→leaf) and a
// resolver that only knows coordinate (0, 0).
func pair(s *eventsim.Sim) (up, down *netem.Port, resolve Resolver) {
	link := netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond}
	up = netem.NewPort(s, link, netem.QueueConfig{}, func(*netem.Packet) {}, "leaf0->spine0")
	down = netem.NewPort(s, link, netem.QueueConfig{}, func(*netem.Packet) {}, "spine0->leaf0")
	resolve = func(leaf, spine int) (*netem.Port, *netem.Port, error) {
		if leaf != 0 || spine != 0 {
			return nil, nil, errNoLink
		}
		return up, down, nil
	}
	return up, down, resolve
}

type noLinkError struct{}

func (noLinkError) Error() string { return "no such link" }

//simlint:allow sharedstate(immutable error sentinel; never reassigned)
var errNoLink = noLinkError{}

func TestInjectorAppliesScheduleInOrder(t *testing.T) {
	s := eventsim.New()
	up, down, resolve := pair(s)
	tr := trace.New(0)
	sched := Schedule{
		// Deliberately out of time order: Install must sort.
		{At: 3 * units.Millisecond, Op: OpRestore},
		{At: units.Millisecond, Op: OpDown},
		{At: 5 * units.Millisecond, Op: OpDeRate, Bandwidth: 100 * units.Mbps},
		{At: 7 * units.Millisecond, Op: OpDelay, Delay: units.Millisecond},
	}
	inj, err := Install(s, sched, resolve, tr)
	if err != nil {
		t.Fatal(err)
	}

	s.RunUntil(2 * units.Millisecond)
	if !up.Down() || !down.Down() {
		t.Fatal("both directions should be down at t=2ms")
	}
	s.RunUntil(4 * units.Millisecond)
	if up.Down() || down.Down() {
		t.Fatal("both directions should be restored at t=4ms")
	}
	s.RunUntil(6 * units.Millisecond)
	if got := up.Link().Bandwidth; got != 100*units.Mbps {
		t.Fatalf("uplink rate at t=6ms = %v, want 100Mbps", got)
	}
	if got := up.Link().Delay; got != 10*units.Microsecond {
		t.Fatalf("derate changed the delay: %v", got)
	}
	s.RunUntil(8 * units.Millisecond)
	if got := down.Link().Delay; got != units.Millisecond {
		t.Fatalf("downlink delay at t=8ms = %v, want 1ms", got)
	}
	if got := down.Link().Bandwidth; got != 100*units.Mbps {
		t.Fatalf("delay change clobbered the rate: %v", got)
	}
	// 4 events x 2 directions.
	if inj.Applied() != 8 {
		t.Fatalf("Applied() = %d, want 8", inj.Applied())
	}
	if got := tr.Count(trace.LinkFault); got != 8 {
		t.Fatalf("traced %d LinkFault events, want 8", got)
	}
}

func TestRestoreUndoesAccumulatedChanges(t *testing.T) {
	s := eventsim.New()
	up, _, resolve := pair(s)
	orig := up.Link()
	sched := Schedule{
		{At: units.Millisecond, Op: OpDeRate, Bandwidth: 5 * units.Mbps},
		{At: 2 * units.Millisecond, Op: OpDelay, Delay: 4 * units.Millisecond},
		{At: 3 * units.Millisecond, Op: OpDown},
		{At: 4 * units.Millisecond, Op: OpRestore},
	}
	if _, err := Install(s, sched, resolve, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if up.Down() {
		t.Fatal("port still down after restore")
	}
	if got := up.Link(); got != orig {
		t.Fatalf("restore left link at %+v, want original %+v", got, orig)
	}
}

func TestDirectionSelectsOnePort(t *testing.T) {
	s := eventsim.New()
	up, down, resolve := pair(s)
	sched := Schedule{{At: units.Millisecond, Leaf: 0, Spine: 0, Dir: LeafToSpine, Op: OpDown}}
	if _, err := Install(s, sched, resolve, nil); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !up.Down() {
		t.Fatal("leaf→spine direction not taken down")
	}
	if down.Down() {
		t.Fatal("spine→leaf direction taken down by a LeafToSpine event")
	}
}

func TestValidateRejectsBrokenEvents(t *testing.T) {
	cases := map[string]Schedule{
		"negative time":     {{At: -units.Second, Op: OpDown}},
		"negative leaf":     {{Leaf: -1, Op: OpDown}},
		"zero-rate derate":  {{At: 0, Op: OpDeRate}},
		"negative delay":    {{At: 0, Op: OpDelay, Delay: -units.Second}},
		"unknown direction": {{At: 0, Dir: Direction(9)}},
	}
	for name, sched := range cases {
		if err := sched.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", name, sched)
		}
	}
}

func TestInstallRejectsUnknownLink(t *testing.T) {
	s := eventsim.New()
	_, _, resolve := pair(s)
	_, err := Install(s, Schedule{{Leaf: 3, Spine: 9, Op: OpDown}}, resolve, nil)
	if err == nil || !strings.Contains(err.Error(), "no such link") {
		t.Fatalf("Install accepted an unresolvable link: %v", err)
	}
}

func TestEmptyScheduleInstallsNothing(t *testing.T) {
	s := eventsim.New()
	_, _, resolve := pair(s)
	inj, err := Install(s, nil, resolve, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("empty schedule left %d events pending", s.Pending())
	}
	s.Run()
	if inj.Applied() != 0 {
		t.Fatalf("empty schedule applied %d operations", inj.Applied())
	}
}

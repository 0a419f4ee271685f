package faults

import (
	"slices"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
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

var errNoLink = noLinkError{}

func TestInjectorAppliesScheduleInOrder(t *testing.T) {
	s := eventsim.New()
	up, down, resolve := pair(s)
	sched := Schedule{
		// Deliberately out of time order: Install must sort.
		{At: 3 * units.Millisecond, Op: OpRestore},
		{At: units.Millisecond, Op: OpDown},
		{At: 5 * units.Millisecond, Op: OpDown},
		// Equal times keep schedule order: the restore is applied last.
		{At: 7 * units.Millisecond, Op: OpDown},
		{At: 7 * units.Millisecond, Op: OpRestore},
	}
	var order []Op
	for _, e := range sched.Sorted() {
		order = append(order, e.Op)
	}
	if want := []Op{OpDown, OpRestore, OpDown, OpDown, OpRestore}; !slices.Equal(order, want) {
		t.Fatalf("Sorted ops %v, want %v", order, want)
	}
	if err := Install(s, sched, resolve); err != nil {
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
	if !up.Down() || !down.Down() {
		t.Fatal("both directions should be down again at t=6ms")
	}
	s.RunUntil(8 * units.Millisecond)
	if up.Down() || down.Down() {
		t.Fatal("both directions should be restored at t=8ms")
	}
}

func TestValidateRejectsBrokenEvents(t *testing.T) {
	cases := map[string]Schedule{
		"negative time": {{At: -units.Second, Op: OpDown}},
		"negative leaf": {{Leaf: -1, Op: OpDown}},
		"unknown op":    {{At: 0, Op: OpRestore + 1}},
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
	err := Install(s, Schedule{{Leaf: 3, Spine: 9, Op: OpDown}}, resolve)
	if err == nil || !strings.Contains(err.Error(), "no such link") {
		t.Fatalf("Install accepted an unresolvable link: %v", err)
	}
}

func TestEmptyScheduleInstallsNothing(t *testing.T) {
	s := eventsim.New()
	_, _, resolve := pair(s)
	if err := Install(s, nil, resolve); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("empty schedule left %d events pending", s.Pending())
	}
}

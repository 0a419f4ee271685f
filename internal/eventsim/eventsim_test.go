package eventsim

import (
	"math"
	"testing"
	"testing/quick"

	"tlb/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		s.At(at, func() { got = append(got, s.Now()) })
	}
	s.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New()
	var at1, at2 Time
	s.After(10, func() {
		at1 = s.Now()
		s.After(5, func() { at2 = s.Now() })
	})
	s.Run()
	if at1 != 10 || at2 != 15 {
		t.Fatalf("got %v, %v; want 10, 15", at1, at2)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel of a pending event reported not-pending")
	}
	if s.Cancel(e) { // double cancel is a no-op
		t.Fatal("double Cancel reported the event as still pending")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var fired []int
	evs := make([]Event, 20)
	for i := 0; i < 20; i++ {
		i := i
		evs[i] = s.At(Time(i), func() { fired = append(fired, i) })
	}
	// Cancel a scattering of events.
	for _, i := range []int{3, 7, 11, 19, 0} {
		s.Cancel(evs[i])
	}
	s.Run()
	if len(fired) != 15 {
		t.Fatalf("fired %d events, want 15", len(fired))
	}
	prev := -1
	for _, i := range fired {
		if i <= prev {
			t.Fatalf("out of order after cancels: %v", fired)
		}
		prev = i
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i*10), func() { count++ })
	}
	s.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events before deadline, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock at %v, want 50", s.Now())
	}
	s.RunUntil(1000)
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("ran %d events, want 3 (stopped)", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", s.Pending())
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.At(1, func() { n++ })
	s.At(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatal("first step")
	}
	if !s.Step() || n != 2 {
		t.Fatal("second step")
	}
	if s.Step() {
		t.Fatal("step on empty queue reported true")
	}
}

// TestHeapPropertyRandomOps drives the 4-ary heap with random
// interleaved schedules and cancels and checks the pop order is always
// non-decreasing in time.
func TestHeapPropertyRandomOps(t *testing.T) {
	check := func(seed uint64) bool {
		rng := NewRNG(seed)
		s := New()
		var live []Event
		lastFired := Time(-1)
		ok := true
		record := func(at Time) func() {
			return func() {
				if at < lastFired {
					ok = false
				}
				lastFired = at
			}
		}
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				at := Time(rng.Intn(10000))
				live = append(live, s.At(at, record(at)))
			case 2:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					s.Cancel(live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}
		s.Run()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d collisions in 1000 draws", same)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	rng := NewRNG(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := rng.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestRNGExpFloat64Mean(t *testing.T) {
	rng := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := rng.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v too far from 1", mean)
	}
}

func TestRNGIntnUniformity(t *testing.T) {
	rng := NewRNG(13)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[rng.Intn(buckets)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/buckets) > 0.05*n/buckets {
			t.Fatalf("bucket %d has %d of %d draws", b, c, n)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams collide: %d of 1000", same)
	}
}

func TestTimeHelpers(t *testing.T) {
	if units.Second.Seconds() != 1 {
		t.Fatal("Second.Seconds() != 1")
	}
	if d := units.FromSeconds(0.0015); d != 1500*units.Microsecond {
		t.Fatalf("FromSeconds(0.0015) = %v", d)
	}
}

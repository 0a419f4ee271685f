package workload

import (
	"slices"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

func testPoissonConfig() PoissonConfig {
	return PoissonConfig{
		Hosts: 16,
		Sizes: Uniform{MinSize: 4 * units.KB, MaxSize: 64 * units.KB},
		Rate:  300_000,
		Deadlines: DeadlineDist{
			Min:       5 * units.Millisecond,
			Max:       25 * units.Millisecond,
			OnlyBelow: 100 * units.KB,
		},
		PerLeaf: 1,
	}
}

// TestPoissonSourceMatchesGenerate: the source yields, flow for flow,
// what a plain generation loop draws from the same seed — gap, pair
// (both redrawn until distinct), size, deadline — and then stays
// exhausted.
func TestPoissonSourceMatchesGenerate(t *testing.T) {
	cfg := testPoissonConfig()
	src, err := cfg.Source(eventsim.NewRNG(3), 500)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(src)
	rng := eventsim.NewRNG(3)
	var at units.Time
	var want []Flow
	for i := 0; i < 500; i++ {
		at += units.FromSeconds(rng.ExpFloat64() / cfg.Rate)
		s, d := rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		for s == d {
			s, d = rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		}
		f := Flow{Src: s, Dst: d, Size: cfg.Sizes.Sample(rng), Start: at, Index: i}
		if dl := cfg.Deadlines.Sample(rng, f.Size); dl > 0 {
			f.Deadline = at + dl
		}
		want = append(want, f)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("source diverges from the generation loop (%d flows, want %d)", len(got), len(want))
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source yielded a flow")
	}
}

func TestPoissonSourceStartsNonDecreasing(t *testing.T) {
	src, err := testPoissonConfig().Source(eventsim.NewRNG(5), 1000)
	if err != nil {
		t.Fatal(err)
	}
	var prev units.Time
	for {
		f, ok := src.Next()
		if !ok {
			break
		}
		if f.Start < prev {
			t.Fatalf("start went backwards: %v after %v", f.Start, prev)
		}
		prev = f.Start
	}
}

func TestPoissonSourceValidation(t *testing.T) {
	bad := testPoissonConfig()
	bad.Hosts = 1
	if _, err := bad.Source(eventsim.NewRNG(1), 10); err == nil {
		t.Fatal("no error for 1 host")
	}
	bad = testPoissonConfig()
	bad.Rate = 0
	if _, err := bad.Source(eventsim.NewRNG(1), 10); err == nil {
		t.Fatal("no error for zero rate")
	}
}

// TestInterPodSourceMatchesGenerate: the source yields what a plain
// generation loop draws from the same seed — gap, src, dst redrawn
// until cross-pod, size, deadline for the flows at or below the
// threshold. Deadlines on [base, base+jitter) draw base +
// Intn(jitter), the fat-tree figures' form.
func TestInterPodSourceMatchesGenerate(t *testing.T) {
	cfg := InterPodConfig{
		Hosts:     64,
		PerPod:    16,
		Flows:     400,
		Sizes:     Uniform{MinSize: 4 * units.KB, MaxSize: 64 * units.KB},
		MaxGap:    20 * units.Microsecond,
		Deadlines: DeadlineDist{Min: 5 * units.Millisecond, Max: 25*units.Millisecond - 1, OnlyBelow: 100 * units.KB},
	}
	src, err := cfg.Source(eventsim.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(src)
	rng := eventsim.NewRNG(7)
	var at units.Time
	var want []Flow
	for i := 0; i < cfg.Flows; i++ {
		at += units.Time(rng.Intn(int(cfg.MaxGap)))
		s, d := rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		for d/cfg.PerPod == s/cfg.PerPod {
			d = rng.Intn(cfg.Hosts)
		}
		f := Flow{Src: s, Dst: d, Size: cfg.Sizes.Sample(rng), Start: at, Index: i}
		if f.Size <= 100*units.KB {
			f.Deadline = at + 5*units.Millisecond + units.Time(rng.Intn(int(20*units.Millisecond)))
		}
		want = append(want, f)
	}
	if len(want) != 400 || !slices.Equal(got, want) {
		t.Fatalf("source diverges from the generation loop (%d flows, want %d)", len(got), len(want))
	}
}

func TestInterPodValidation(t *testing.T) {
	base := InterPodConfig{Hosts: 64, PerPod: 16, Flows: 10, Sizes: Fixed{Size: units.KB}, MaxGap: units.Microsecond}
	for _, mod := range []func(*InterPodConfig){
		func(c *InterPodConfig) { c.Flows = 0 },
		func(c *InterPodConfig) { c.PerPod = 0 },
		func(c *InterPodConfig) { c.Hosts = 16 }, // single pod
		func(c *InterPodConfig) { c.MaxGap = 0 },
	} {
		c := base
		mod(&c)
		if _, err := c.Source(eventsim.NewRNG(1)); err == nil {
			t.Fatalf("no error for %+v", c)
		}
	}
	if _, err := base.Source(eventsim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
}

// TestArrivalsNumbersAndReplays: a materialized workload's flows are
// numbered by position and replayed in stable (Start, Index) order, the
// same sequence on every call, and the caller's slice is left as it
// was — the contract every mix golden's FlowIDs rest on.
func TestArrivalsNumbersAndReplays(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 1, Start: 3 * units.Microsecond, Index: 7},
		{Src: 1, Dst: 2, Size: 2, Start: units.Microsecond},
		{Src: 2, Dst: 3, Size: 3, Start: 3 * units.Microsecond},
		{Src: 3, Dst: 4, Size: 4, Start: units.Microsecond},
		{Src: 4, Dst: 5, Size: 5, Start: 0},
	}
	orig := slices.Clone(flows)
	replay := Arrivals(flows)
	got := Collect(replay())
	var order []int
	for _, f := range got {
		if want := orig[f.Index]; f.Src != want.Src || f.Size != want.Size || f.Start != want.Start {
			t.Fatalf("flow with Index %d is %+v, position %d holds %+v", f.Index, f, f.Index, want)
		}
		order = append(order, f.Index)
	}
	if want := []int{4, 1, 3, 0, 2}; !slices.Equal(order, want) {
		t.Fatalf("arrival order %v, want stable (Start, Index) %v", order, want)
	}
	if again := Collect(replay()); !slices.Equal(again, got) {
		t.Fatalf("second replay differs:\n%+v\n%+v", again, got)
	}
	if !slices.Equal(flows, orig) {
		t.Fatalf("Arrivals changed its input: %+v", flows)
	}
	if got := Collect(Arrivals(nil)()); got != nil {
		t.Fatalf("empty workload collected %+v", got)
	}
}

func TestOverrideDeadlines(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 10 * units.KB, Start: units.Millisecond, Deadline: 99 * units.Millisecond},
		{Src: 1, Dst: 2, Size: 500 * units.KB, Start: 2 * units.Millisecond, Deadline: 99 * units.Millisecond},
	}
	src := OverrideDeadlines(Arrivals(flows)(), 5*units.Millisecond, 100*units.KB)
	got := Collect(src)
	if got[0].Deadline != flows[0].Start+5*units.Millisecond {
		t.Fatalf("small flow deadline %v", got[0].Deadline)
	}
	if got[1].Deadline != 0 {
		t.Fatalf("large flow deadline %v, want cleared", got[1].Deadline)
	}
}

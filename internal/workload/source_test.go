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
	}
}

// TestPoissonSourceMatchesGenerate: the source yields, flow for flow,
// what a plain generation loop draws from the same seed — gap, pair
// (both redrawn until distinct), size, deadline — and then stays
// exhausted.
func TestPoissonSourceMatchesGenerate(t *testing.T) {
	cfg := testPoissonConfig()
	src, err := cfg.Source(eventsim.NewRNG(3), 500, units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(src)
	rng := eventsim.NewRNG(3)
	at := units.Millisecond
	var want []Flow
	for i := 0; i < 500; i++ {
		at += units.FromSeconds(rng.ExpFloat64() / cfg.Rate)
		s, d := rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		for s == d {
			s, d = rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		}
		f := Flow{Src: s, Dst: d, Size: cfg.Sizes.Sample(rng), Start: at}
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
	src, err := testPoissonConfig().Source(eventsim.NewRNG(5), 1000, 0)
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
	if _, err := bad.Source(eventsim.NewRNG(1), 10, 0); err == nil {
		t.Fatal("no error for 1 host")
	}
	bad = testPoissonConfig()
	bad.Rate = 0
	if _, err := bad.Source(eventsim.NewRNG(1), 10, 0); err == nil {
		t.Fatal("no error for zero rate")
	}
}

// TestInterPodSourceMatchesGenerate: the source yields what a plain
// generation loop draws from the same seed — gap, src, dst redrawn
// until cross-pod, size, deadline for the flows at or below the
// threshold.
func TestInterPodSourceMatchesGenerate(t *testing.T) {
	cfg := InterPodConfig{
		Hosts:             64,
		PerPod:            16,
		Flows:             400,
		Sizes:             Uniform{MinSize: 4 * units.KB, MaxSize: 64 * units.KB},
		MaxGap:            20 * units.Microsecond,
		DeadlineBase:      5 * units.Millisecond,
		DeadlineJitter:    20 * units.Millisecond,
		DeadlineOnlyBelow: 100 * units.KB,
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
		f := Flow{Src: s, Dst: d, Size: cfg.Sizes.Sample(rng), Start: at}
		if f.Size <= cfg.DeadlineOnlyBelow {
			f.Deadline = at + cfg.DeadlineBase + units.Time(rng.Intn(int(cfg.DeadlineJitter)))
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

func TestSliceSourceRoundTrip(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Size: units.KB, Start: 0},
		{Src: 1, Dst: 2, Size: 2 * units.KB, Start: units.Microsecond},
	}
	got := Collect(NewSliceSource(flows))
	if len(got) != 2 || got[0] != flows[0] || got[1] != flows[1] {
		t.Fatalf("round trip %+v", got)
	}
	if got := Collect(NewSliceSource(nil)); got != nil {
		t.Fatalf("empty source collected %+v", got)
	}
}

func TestOverrideDeadlines(t *testing.T) {
	flows := []Flow{
		{Src: 0, Dst: 1, Size: 10 * units.KB, Start: units.Millisecond, Deadline: 99 * units.Millisecond},
		{Src: 1, Dst: 2, Size: 500 * units.KB, Start: 2 * units.Millisecond, Deadline: 99 * units.Millisecond},
	}
	src := OverrideDeadlines(NewSliceSource(flows), 5*units.Millisecond, 100*units.KB)
	got := Collect(src)
	if got[0].Deadline != flows[0].Start+5*units.Millisecond {
		t.Fatalf("small flow deadline %v", got[0].Deadline)
	}
	if got[1].Deadline != 0 {
		t.Fatalf("large flow deadline %v, want cleared", got[1].Deadline)
	}
	// onlyBelow == 0 applies to everything.
	src = OverrideDeadlines(NewSliceSource(flows), 5*units.Millisecond, 0)
	got = Collect(src)
	if got[1].Deadline != flows[1].Start+5*units.Millisecond {
		t.Fatalf("deadline %v", got[1].Deadline)
	}
}

package model

import (
	"math"
	"testing"
	"testing/quick"

	"tlb/internal/units"
)

// paperParams mirrors the paper's §4.2 verification setup: 15 paths,
// 1 Gbps, 3 long + 100 short flows, X = 70 KB, D = 10 ms, t = 500 µs,
// RTT = 100 µs.
func paperParams() Params {
	return Params{
		Paths:         15,
		ShortFlows:    100,
		LongFlows:     3,
		LinkBandwidth: units.Gbps,
		RTT:           100 * units.Microsecond,
		MeanShortSize: 70 * units.KB,
		Deadline:      10 * units.Millisecond,
		Interval:      500 * units.Microsecond,
		// Paper-literal Eq. 1 (W_L per propagation RTT), which is
		// what §4.2's numbers are computed from.
		UncappedLongDemand: true,
	}
}

func TestLongDemandCapLowersQTh(t *testing.T) {
	uncapped := paperParams()
	capped := uncapped
	capped.UncappedLongDemand = false
	qu, qc := uncapped.QTh(), capped.QTh()
	// W_L/RTT = ~5.2 Gbps > C = 1 Gbps here, so the cap must bite.
	if !(qc < qu) {
		t.Fatalf("capped q_th %v not below uncapped %v", qc, qu)
	}
	// When W_L/RTT <= C the flag must not matter.
	uncapped.RTT = 10 * units.Millisecond
	capped.RTT = 10 * units.Millisecond
	if uncapped.QTh() != capped.QTh() {
		t.Fatalf("cap changed q_th despite W_L/RTT < C: %v vs %v",
			uncapped.QTh(), capped.QTh())
	}
}

func TestRounds(t *testing.T) {
	cases := []struct {
		x    units.Bytes
		want int
	}{
		{1, 1},      // sub-MSS
		{1460, 1},   // exactly one segment
		{1461, 1},   // floor(log2(~1.0007))+1 = 1
		{2920, 2},   // 2 segments: floor(log2 2)+1 = 2
		{11680, 4},  // 8 segments
		{70000, 6},  // ~48 segments: floor(log2 47.9)=5, +1
		{100000, 7}, // ~68.5 segments
	}
	for _, c := range cases {
		if got := Rounds(c.x, 1460); got != c.want {
			t.Errorf("Rounds(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestPKWait(t *testing.T) {
	c := 83333.0 // pkts/s
	if w := PKWait(0, c); w != 0 {
		t.Fatalf("wait at rho=0 is %v", w)
	}
	if w := PKWait(1.0, c); !math.IsInf(w, 1) {
		t.Fatalf("wait at rho=1 is %v, want +Inf", w)
	}
	// rho=0.5: W = 0.5/(2*0.5)/C = 1/(2C).
	if w, want := PKWait(0.5, c), 1/(2*c); math.Abs(w-want) > 1e-12 {
		t.Fatalf("PKWait(0.5) = %v, want %v", w, want)
	}
	// Monotone in rho.
	prev := -1.0
	for rho := 0.0; rho < 1; rho += 0.05 {
		w := PKWait(rho, c)
		if w < prev {
			t.Fatalf("PKWait not monotone at rho=%v", rho)
		}
		prev = w
	}
}

func TestQThPaperSetupIsFinitePositive(t *testing.T) {
	q := paperParams().QTh()
	if math.IsInf(q, 1) || q < 0 {
		t.Fatalf("paper setup q_th = %v", q)
	}
	// Sanity: the paper's Fig. 7 shows thresholds of tens to a few
	// hundred packets in this regime.
	if q < 1 || q > 2000 {
		t.Fatalf("q_th = %v packets, outside plausible range", q)
	}
}

// The four monotonicity properties of Fig. 7: q_th increases with more
// short flows (7a) and more long flows (7b), decreases with more paths
// (7c) and looser deadlines (7d).
func TestQThMonotoneInShortFlows(t *testing.T) {
	prev := -1.0
	for ms := 20; ms <= 100; ms += 20 {
		p := paperParams()
		p.ShortFlows = ms
		q := p.QTh()
		if q < prev {
			t.Fatalf("q_th decreased when m_S grew to %d: %v < %v", ms, q, prev)
		}
		prev = q
	}
}

func TestQThMonotoneInLongFlows(t *testing.T) {
	prev := -1.0
	for ml := 1; ml <= 5; ml++ {
		p := paperParams()
		p.LongFlows = ml
		q := p.QTh()
		if q < prev {
			t.Fatalf("q_th decreased when m_L grew to %d", ml)
		}
		prev = q
	}
}

func TestQThMonotoneInPaths(t *testing.T) {
	prev := math.Inf(1)
	for n := 10; n <= 35; n += 5 {
		p := paperParams()
		p.Paths = n
		q := p.QTh()
		if q > prev {
			t.Fatalf("q_th increased when paths grew to %d", n)
		}
		prev = q
	}
}

func TestQThMonotoneInDeadline(t *testing.T) {
	prev := math.Inf(1)
	for d := 5; d <= 25; d += 5 {
		p := paperParams()
		p.Deadline = units.Time(d) * units.Millisecond
		q := p.QTh()
		if q > prev {
			t.Fatalf("q_th increased when deadline loosened to %dms", d)
		}
		prev = q
	}
}

func TestQThEdgeCases(t *testing.T) {
	p := paperParams()
	p.LongFlows = 0
	if q := p.QTh(); q != 0 {
		t.Fatalf("q_th with no long flows = %v, want 0 (switch freely)", q)
	}

	// Infeasible deadline (tighter than bare transmission time).
	p = paperParams()
	p.Deadline = units.Microsecond
	if q := p.QTh(); !math.IsInf(q, 1) {
		t.Fatalf("q_th with infeasible deadline = %v, want +Inf", q)
	}

	// So many short flows they need all paths: long flows must never
	// switch.
	p = paperParams()
	p.ShortFlows = 100000
	if q := p.QTh(); !math.IsInf(q, 1) {
		t.Fatalf("q_th with saturating shorts = %v, want +Inf", q)
	}
}

func TestQThPacketsClamp(t *testing.T) {
	p := paperParams()
	p.Deadline = units.Microsecond // infeasible -> +Inf
	if got := p.QThPackets(256); got != 256 {
		t.Fatalf("clamp = %d, want 256", got)
	}
	p = paperParams()
	p.LongFlows = 0
	if got := p.QThPackets(256); got != 0 {
		t.Fatalf("no-longs = %d, want 0", got)
	}
	q := paperParams().QTh()
	got := paperParams().QThPackets(1 << 20)
	if float64(got) < q || float64(got) > q+1 {
		t.Fatalf("QThPackets %d does not ceil %v", got, q)
	}
}

func TestFCTShortLimits(t *testing.T) {
	p := paperParams()
	// With no short flows, FCT is the bare transmission time X/C.
	p.ShortFlows = 0
	c := p.withDefaults().capacityPkts()
	x := p.withDefaults().shortSizePkts()
	if got, want := p.FCTShort(100), x/c; math.Abs(got-want) > 1e-9 {
		t.Fatalf("FCT with no load = %v, want %v", got, want)
	}
}

func TestFCTShortMonotoneInQTh(t *testing.T) {
	// Larger q_th -> long flows hold fewer paths... actually larger
	// q_th means longs stay longer per path (nL smaller share), giving
	// shorts MORE paths (nS larger) -> smaller FCT.
	p := paperParams()
	prev := math.Inf(1)
	for _, q := range []float64{10, 50, 100, 200, 400} {
		f := p.FCTShort(q)
		if f > prev {
			t.Fatalf("FCT increased with larger q_th=%v", q)
		}
		prev = f
	}
}

// TestQThFCTConsistency: the q_th from Eq. 9 must make Eq. 8's FCT come
// out at (or under) the deadline — the two equations are inverses.
func TestQThFCTConsistency(t *testing.T) {
	f := func(msRaw, mlRaw, dRaw uint8) bool {
		p := paperParams()
		p.ShortFlows = int(msRaw%100) + 1
		p.LongFlows = int(mlRaw%5) + 1
		p.Deadline = units.Time(int(dRaw%20)+6) * units.Millisecond
		q := p.QTh()
		if math.IsInf(q, 1) {
			return true // infeasible: nothing to check
		}
		fct := p.FCTShort(q + 1e-9)
		return fct <= p.Deadline.Seconds()*1.02 // 2% numeric slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	good := paperParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Paths = 0
	if bad.Validate() == nil {
		t.Fatal("0 paths validated")
	}
	bad = good
	bad.Deadline = 0
	if bad.Validate() == nil {
		t.Fatal("0 deadline validated")
	}
	bad = good
	bad.ShortFlows = -1
	if bad.Validate() == nil {
		t.Fatal("negative flows validated")
	}
}

package sim

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// streamTestFlows builds a deterministic Poisson workload over the
// small fabric: cross-leaf pairs, deadlined shorts, sized to span both
// classes.
func streamTestFlows(t *testing.T, n int) []workload.Flow {
	t.Helper()
	topo := smallTopo()
	cfg := streamTestPoisson(topo)
	cfg.Deadlines = workload.DeadlineDist{
		Min: units.Millisecond, Max: 10 * units.Millisecond,
		OnlyBelow: 100 * units.KB,
	}
	src, err := cfg.Source(eventsim.NewRNG(99), n)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Collect(src)
}

// streamTestPoisson is cross-leaf Poisson traffic at 40 % of the host
// links' capacity.
func streamTestPoisson(topo topology.Config) workload.PoissonConfig {
	sizes := workload.Uniform{MinSize: 4 * units.KB, MaxSize: 200 * units.KB}
	return workload.PoissonConfig{
		Hosts:   topo.Hosts(),
		Sizes:   sizes,
		Rate:    0.4 * topo.HostLink.Bandwidth.BytesPerSecond() * float64(topo.Hosts()) / sizes.Mean(),
		PerLeaf: topo.HostsPerLeaf,
	}
}

func streamTestScenario(flows []workload.Flow, maxTime units.Time) Scenario {
	return Scenario{
		Name: "stream", Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 7,
		FlowSourceNew: workload.Arrivals(flows), MaxTime: maxTime,
	}
}

// assertAggregateMatchesRecords checks a run's aggregate against the
// records it folded, which go through no aggregate: per class, every
// integer counter equals a direct sum over the records, and the FCT
// percentiles and CDF equal the records' exact order statistics while
// at most stats.ExactFCTCap flows completed, and lie within the
// sketch's alpha bound of them past it. With time series on, each
// start-time bucket of ShortFCTByStart equals a direct sum too.
func assertAggregateMatchesRecords(t *testing.T, res *Result, recs folds, bucket units.Time) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("no records folded")
	}
	for _, c := range []Class{AllFlows, ShortFlows, LongFlows} {
		var want stats.FlowAgg
		var fcts stats.Sample
		var xs []float64
		for i := range recs {
			fs := &recs[i]
			if short := fs.Size <= ShortThreshold; c == ShortFlows && !short || c == LongFlows && short {
				continue
			}
			want.Count++
			if fs.Done {
				want.Completed++
				fcts.Add(fs.FCT().Seconds())
				xs = append(xs, fs.FCT().Seconds())
			}
			if fs.Deadline != 0 {
				want.DeadlineTotal++
				if fs.MissedDeadline(res.EndTime) {
					want.DeadlineMissed++
				}
			}
			want.Retransmits += fs.Retransmits
			want.Timeouts += fs.Timeouts
			want.PacketsRecv += fs.PacketsRecv
			want.OutOfOrder += fs.OutOfOrder
			want.DupAcksSent += fs.DupAcksSent
			want.BytesAcked += int64(fs.BytesAcked)
			want.SumQueueDelay += int64(fs.SumQueueDelay)
			want.DelaySamples += fs.DelaySamples
		}
		a := res.Stream.Agg(c)
		got := stats.FlowAgg{
			Count: int64(res.Count(c)), Completed: int64(res.CompletedCount(c)),
			DeadlineTotal: a.DeadlineTotal, DeadlineMissed: a.DeadlineMissed,
			Retransmits: res.TotalRetransmits(c), Timeouts: res.TotalTimeouts(c),
			PacketsRecv: a.PacketsRecv, OutOfOrder: a.OutOfOrder,
			DupAcksSent: a.DupAcksSent, BytesAcked: a.BytesAcked,
			SumQueueDelay: a.SumQueueDelay, DelaySamples: a.DelaySamples,
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("class %d: accessors %+v, direct sum over records %+v", c, got, want)
		}
		if fcts.N() == 0 {
			continue
		}
		ps := []float64{0, 10, 50, 90, 95, 99, 99.9, 100}
		if fcts.N() <= stats.ExactFCTCap {
			for _, p := range ps {
				if got, want := res.FCTPercentile(c, p), units.FromSeconds(fcts.Percentile(p)); got != want {
					t.Fatalf("class %d p%v: %v, exact %v", c, p, got, want)
				}
			}
			if got, want := res.Stream.Agg(c).FCTs().CDF(50), fcts.CDF(50); !reflect.DeepEqual(got, want) {
				t.Fatalf("class %d: CDF %v, exact %v", c, got, want)
			}
			continue
		}
		// Past the cap: within the sketch's documented alpha bound of the
		// exact value's bracketing order statistics.
		slices.Sort(xs)
		alpha := stats.SketchAlpha
		for _, p := range ps {
			est := res.FCTPercentile(c, p).Seconds()
			rank := p / 100 * float64(len(xs)-1)
			lo := xs[int(rank)] * (1 - alpha)
			hi := xs[int(math.Ceil(rank))] * (1 + alpha)
			if est < lo-1e-9 || est > hi+1e-9 {
				t.Fatalf("class %d p%v: sketched %v outside [%v, %v]", c, p, est, lo, hi)
			}
		}
	}
	if res.ShortFCTByStart == nil {
		return
	}
	by := res.ShortFCTByStart
	var total int64
	for i := range by.Sums() {
		from, to := units.Time(i)*bucket, units.Time(i+1)*bucket
		var want struct {
			n   int64
			sum units.Time
		}
		for _, fs := range recs {
			if fs.Done && fs.Size <= ShortThreshold && fs.Start >= from && fs.Start < to {
				want.n++
				want.sum += fs.FCT()
			}
		}
		if n, sum := by.Window(from.Seconds(), to.Seconds()); n != want.n || sum != float64(want.sum) {
			t.Fatalf("FCT by start at %v: %d flows, %v ns; direct sum %d, %v", from, n, sum, want.n, want.sum)
		}
		total += want.n
	}
	if total != int64(res.CompletedCount(ShortFlows)) {
		t.Fatalf("FCT by start holds %d flows, %d short flows completed", total, res.CompletedCount(ShortFlows))
	}
}

// TestFoldAudit doctors an aggregate the ways the single fold path
// could go wrong and checks the end-of-run audit rejects each.
func TestFoldAudit(t *testing.T) {
	recs := []*transport.FlowStats{
		{Size: units.KB, Start: 0, End: units.Millisecond, Done: true},
		{Size: units.MB, Start: 0, End: 2 * units.Millisecond, Done: true},
		{Size: units.KB, Start: units.Millisecond},
	}
	end := 3 * units.Millisecond
	fold := func(recs ...*transport.FlowStats) *stats.FlowAgg {
		agg := &StreamAgg{}
		for _, fs := range recs {
			agg.Fold(fs, fs.Size <= 100*units.KB, end)
		}
		return agg.Agg(AllFlows)
	}
	if err := auditFold(fold(recs...), 3, 2); err != nil {
		t.Fatalf("clean fold: %v", err)
	}
	lost := *recs[0]
	lost.Done = false
	for name, all := range map[string]*stats.FlowAgg{
		"double fold":                    fold(recs[0], recs[0], recs[1], recs[2]),
		"missed fold":                    fold(recs[0], recs[1]),
		"completion folded as open flow": fold(&lost, recs[1], recs[2]),
	} {
		if err := auditFold(all, 3, 2); err == nil {
			t.Errorf("%s passed the audit", name)
		}
	}
}

// aggregateRuns runs the stream-test scenario over flows up to maxTime
// with time series on, replicated or not, and
// returns its Result and the records it folded.
func aggregateRuns(t *testing.T, flows []workload.Flow, maxTime units.Time, repl bool) (*Result, folds) {
	t.Helper()
	sc := streamTestScenario(flows, maxTime)
	sc.TimeBucket = 2 * units.Millisecond
	sc.Replicate = repl
	res, recs, err := runWatched(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res, recs
}

// aggregateRows are the aggregate tests' flow kinds: plain flows, and
// short flows raced as two replicated copies, whose one record is the
// canonical one whichever copies are still racing.
var aggregateRows = []struct {
	name string
	repl bool
}{
	{"plain", false},
	{"replicated", true},
}

func TestAggregateMatchesRecords(t *testing.T) {
	flows := streamTestFlows(t, 400)
	for _, row := range aggregateRows {
		t.Run(row.name, func(t *testing.T) {
			res, recs := aggregateRuns(t, flows, 30*units.Second, row.repl)
			if got := res.CompletedCount(AllFlows); got != 400 {
				t.Fatalf("only %d/400 completed; test wants a fully finished run", got)
			}
			assertAggregateMatchesRecords(t, res, recs, 2*units.Millisecond)
		})
	}
}

// A truncated run leaves flows unfinished — and, replicated, losing
// copies still racing; the run folds the open flows at EndTime in open
// order, so the aggregate counts them exactly as a direct sum over their
// records does (deadline misses at EndTime).
func TestAggregateMatchesRecordsWithUnfinished(t *testing.T) {
	flows := streamTestFlows(t, 400)
	for _, row := range aggregateRows {
		t.Run(row.name, func(t *testing.T) {
			res, recs := aggregateRuns(t, flows, flows[len(flows)-1].Start/2, row.repl)
			if res.CompletedCount(AllFlows) >= res.Count(AllFlows) {
				t.Fatal("test wants unfinished flows")
			}
			assertAggregateMatchesRecords(t, res, recs, 2*units.Millisecond)
		})
	}
}

// TestPercentilesPastExactCap runs just past stats.ExactFCTCap: the
// all-flows class answers from the sketch, within its documented bound
// of the exact order statistics, and each size class, below the cap,
// exactly. The bound is relative, so a larger run proves nothing more;
// the sketch's bucket collapse is pinned in internal/stats.
func TestPercentilesPastExactCap(t *testing.T) {
	n := stats.ExactFCTCap + 200
	res, recs := aggregateRuns(t, streamTestFlows(t, n), 120*units.Second, false)
	if got := res.CompletedCount(AllFlows); got != n {
		t.Fatalf("only %d/%d completed; test wants a fully finished run", got, n)
	}
	if res.CompletedCount(ShortFlows) > stats.ExactFCTCap || res.CompletedCount(LongFlows) > stats.ExactFCTCap {
		t.Fatalf("%d short and %d long flows: test wants both classes exact", res.CompletedCount(ShortFlows), res.CompletedCount(LongFlows))
	}
	assertAggregateMatchesRecords(t, res, recs, 2*units.Millisecond)
}

// TestFlowDrawIndependentOfBalancer: the flows a run opens are the
// workload's, whatever the balancer. One Poisson source under every
// paper scheme opens the same (index, endpoints, size, start) list, so
// comparing schemes at one seed compares them on one draw.
func TestFlowDrawIndependentOfBalancer(t *testing.T) {
	cfg := streamTestPoisson(smallTopo())
	type drawn struct {
		index, src, dst int
		size            units.Bytes
		start           units.Time
	}
	var want []drawn
	for _, scheme := range []struct {
		name string
		f    lb.Factory
	}{
		{"ecmp", lb.ECMP()},
		{"rps", lb.RPS()},
		{"letflow", lb.LetFlow(lb.LetFlowGap)},
		{"presto", lb.Presto()},
		{"tlb", smallTLB()},
	} {
		sc := streamTestScenario(nil, 30*units.Second)
		sc.Balancer, sc.SchemeName = scheme.f, scheme.name
		sc.FlowSourceNew = func() workload.Source {
			src, err := cfg.Source(eventsim.NewRNG(11), 200)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		_, recs, err := runWatched(sc)
		if err != nil {
			t.Fatal(err)
		}
		var got []drawn
		for _, fs := range recs.byIndex() {
			got = append(got, drawn{fs.ID.Port, fs.ID.Src, fs.ID.Dst, fs.Size, fs.Start})
		}
		if len(got) != 200 {
			t.Fatalf("%s: %d flows opened, want 200", scheme.name, len(got))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s opened other flows than ecmp", scheme.name)
		}
	}
}

// A lazy source and the same flows collected and replayed through
// workload.Arrivals carry the same indices through one pump, so they
// must produce the same Result to the last field, with replication and
// without.
func TestFlowSourceMatchesSlice(t *testing.T) {
	cfg := streamTestPoisson(smallTopo())
	src, err := cfg.Source(eventsim.NewRNG(5), 300)
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Collect(src)
	for _, mode := range []struct {
		name string
		set  func(*Scenario)
	}{
		{"plain", func(*Scenario) {}},
		{"replicated", func(sc *Scenario) {
			sc.Replicate = true
		}},
	} {
		slice := streamTestScenario(flows, 30*units.Second)
		mode.set(&slice)
		fromSlice, err := Run(slice)
		if err != nil {
			t.Fatal(err)
		}
		lazy := streamTestScenario(nil, 30*units.Second)
		mode.set(&lazy)
		lazy.FlowSourceNew = func() workload.Source {
			src, err := cfg.Source(eventsim.NewRNG(5), 300)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		fromSource, err := Run(lazy)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromSlice.CompletedCount(AllFlows); got != 300 {
			t.Fatalf("%s: %d of 300 flows completed", mode.name, got)
		}
		if !reflect.DeepEqual(fromSource, fromSlice) {
			t.Fatalf("%s: a source and the same flows as a slice ran differently", mode.name)
		}
	}
}

// A flow whose start the run never reaches was never opened: it is no
// record and is not counted, replicated or not.
func TestUnstartedFlowsNotCounted(t *testing.T) {
	flows := []workload.Flow{
		{Src: 0, Dst: 4, Size: 10 * units.KB, Start: 0},
		{Src: 1, Dst: 5, Size: 10 * units.KB, Start: units.Millisecond},
		{Src: 2, Dst: 6, Size: 10 * units.KB, Start: 5 * units.Second},
	}
	for _, repl := range []bool{false, true} {
		sc := streamTestScenario(flows, units.Second)
		sc.Replicate = repl
		res, recs, err := runWatched(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || res.Count(AllFlows) != 2 || res.CompletedCount(AllFlows) != 2 {
			t.Fatalf("replication %v: %d records, %d counted, %d completed; want 2 each",
				repl, len(recs), res.Count(AllFlows), res.CompletedCount(AllFlows))
		}
	}
}

func TestStreamScenarioValidation(t *testing.T) {
	flows := []workload.Flow{{Src: 0, Dst: 4, Size: units.KB, Start: 0}}
	base := streamTestScenario(flows, units.Second)

	sc := base
	sc.Flows = flows
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "FlowSourceNew") {
		t.Fatalf("non-empty Flows: got %v, want a rejection naming FlowSourceNew", err)
	}

	sc = base
	sc.FlowSourceNew = workload.Arrivals(nil)
	if _, err := Run(sc); err == nil {
		t.Fatal("no error for an empty source")
	}

	sc = base
	sc.FlowSourceNew = func() workload.Source {
		return &listSource{flows: []workload.Flow{
			{Src: 0, Dst: 4, Size: units.KB, Start: units.Millisecond},
			{Src: 1, Dst: 5, Size: units.KB, Start: 0, Index: 1}, // goes backwards
		}}
	}
	if _, err := Run(sc); err == nil {
		t.Fatal("no error for a source with decreasing starts")
	}

	sc = base
	sc.FlowSourceNew = func() workload.Source {
		return &listSource{flows: []workload.Flow{
			{Src: 0, Dst: 4, Size: units.MB, Start: 0},
			{Src: 1, Dst: 5, Size: units.KB, Start: units.Microsecond}, // Index 0 again, while flow 0 is open
		}}
	}
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "opened twice") {
		t.Fatalf("duplicate index from a source: got %v, want an error", err)
	}

	sc = base
	sc.FlowSourceNew = workload.Arrivals([]workload.Flow{
		{Src: 0, Dst: 99, Size: units.KB, Start: 0}, // invalid endpoint
	})
	if _, err := Run(sc); err == nil {
		t.Fatal("no error for invalid endpoints from a source")
	}
}

// listSource yields its flows as listed, unsorted and numbered as
// given: a source that can break the contracts workload.Arrivals keeps.
type listSource struct{ flows []workload.Flow }

func (l *listSource) Next() (workload.Flow, bool) {
	if len(l.flows) == 0 {
		return workload.Flow{}, false
	}
	f := l.flows[0]
	l.flows = l.flows[1:]
	return f, true
}

package sim

import (
	"math"
	"reflect"
	"sort"
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
		Hosts:  topo.Hosts(),
		Sizes:  sizes,
		Rate:   0.4 * topo.HostLink.Bandwidth.BytesPerSecond() * float64(topo.Hosts()) / sizes.Mean(),
		LeafOf: func(h int) int { return h / topo.HostsPerLeaf },
	}
}

func streamTestScenario(flows []workload.Flow, maxTime units.Time) Scenario {
	return Scenario{
		Name: "stream-parity", Topology: smallTopo(),
		Balancer: lb.ECMP(), SchemeName: "ecmp", Seed: 7,
		FlowSourceNew: workload.Arrivals(flows), StopWhenDone: true, MaxTime: maxTime,
	}
}

// assertStreamParity checks the streamed run against the
// record-keeping run. Both fold the same records in the same order, so
// their aggregates, which every accessor but FCTPercentile reads, must
// be equal to the last bit; the streamed percentiles must lie within
// the sketch bound of the exact value's bracketing order statistics.
// An aggregate is a fold, so its integer counters are also checked
// against sums taken directly over the retained records, which go
// through none.
func assertStreamParity(t *testing.T, exact, streamed *Result) {
	t.Helper()
	if len(streamed.Flows) != 0 {
		t.Fatalf("streamed run retained %d records", len(streamed.Flows))
	}
	if exact.EndTime != streamed.EndTime {
		t.Fatalf("end times differ: %v vs %v", exact.EndTime, streamed.EndTime)
	}
	if !reflect.DeepEqual(exact.Stream, streamed.Stream) {
		t.Fatal("the streamed run's aggregate differs from the record-keeping run's")
	}
	for _, c := range []Class{AllFlows, ShortFlows, LongFlows} {
		var want stats.FlowAgg
		exact.Each(c, func(fs *transport.FlowStats) {
			want.Count++
			if fs.Done {
				want.Completed++
			}
			want.Retransmits += fs.Retransmits
			want.Timeouts += fs.Timeouts
			want.PacketsRecv += fs.PacketsRecv
			want.OutOfOrder += fs.OutOfOrder
			want.DupAcksSent += fs.DupAcksSent
			want.BytesAcked += int64(fs.BytesAcked)
		})
		a := exact.Stream.Agg(c)
		got := stats.FlowAgg{
			Count: int64(exact.Count(c)), Completed: int64(exact.CompletedCount(c)),
			Retransmits: exact.TotalRetransmits(c), Timeouts: exact.TotalTimeouts(c),
			PacketsRecv: a.PacketsRecv, OutOfOrder: a.OutOfOrder,
			DupAcksSent: a.DupAcksSent, BytesAcked: a.BytesAcked,
		}
		if got != want {
			t.Fatalf("class %d: accessors %+v, direct sum over records %+v", c, got, want)
		}

		// Percentiles: the streamed estimate must stay within the
		// sketch's documented alpha bound of the exact value's
		// bracketing order statistics.
		var xs []float64
		exact.Each(c, func(fs *transport.FlowStats) {
			if fs.Done {
				xs = append(xs, fs.FCT().Seconds())
			}
		})
		if len(xs) == 0 {
			continue
		}
		sort.Float64s(xs)
		alpha := stats.DefaultSketchAlpha
		for _, p := range []float64{10, 50, 90, 95, 99, 99.9} {
			est := streamed.FCTPercentile(c, p).Seconds()
			rank := p / 100 * float64(len(xs)-1)
			lo := xs[int(rank)] * (1 - alpha)
			hi := xs[int(math.Ceil(rank))] * (1 + alpha)
			if est < lo-1e-12 || est > hi+1e-12 {
				t.Fatalf("class %d p%v: streamed %v outside [%v, %v]", c, p, est, lo, hi)
			}
		}
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

// assertSameOutputs checks that the streamed run's per-packet outputs —
// the five time series and the queue-length histogram — equal the
// record-keeping run's exactly: they fold as they happen, and StreamStats
// only decides whether records are kept.
func assertSameOutputs(t *testing.T, exact, streamed *Result) {
	t.Helper()
	for _, o := range []struct {
		name            string
		exact, streamed any
	}{
		{"ShortQueueLen", exact.ShortQueueLen, streamed.ShortQueueLen},
		{"ShortQueueDelayUs", exact.ShortQueueDelayUs, streamed.ShortQueueDelayUs},
		{"ShortOOORatio", exact.ShortOOORatio, streamed.ShortOOORatio},
		{"LongOOORatio", exact.LongOOORatio, streamed.LongOOORatio},
		{"ShortGoodputBytes", exact.ShortGoodputBytes, streamed.ShortGoodputBytes},
		{"LongGoodputBytes", exact.LongGoodputBytes, streamed.LongGoodputBytes},
	} {
		empty := false
		switch v := o.exact.(type) {
		case *stats.Histogram:
			empty = v == nil || v.N() == 0
		case *stats.TimeSeries:
			empty = v == nil || len(v.Sums()) == 0
		}
		if empty {
			t.Fatalf("%s is empty in the record-keeping run", o.name)
		}
		if !reflect.DeepEqual(o.exact, o.streamed) {
			t.Errorf("%s differs between the record-keeping and the streamed run", o.name)
		}
	}
}

// streamParityRuns runs the stream-parity scenario over flows up to
// maxTime with time series on and the given replication (nil for none),
// keeping records and streamed.
func streamParityRuns(t *testing.T, flows []workload.Flow, maxTime units.Time, repl *ReplicationConfig) (exact, streamed *Result) {
	t.Helper()
	sc := streamTestScenario(flows, maxTime)
	sc.CollectTimeSeries = true
	sc.Replication = repl
	exact, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.StreamStats = true
	if streamed, err = Run(sc); err != nil {
		t.Fatal(err)
	}
	return exact, streamed
}

// parityRows are the stream/record parity tests' flow kinds: plain
// flows, and short flows raced as two replicated copies, whose one
// record is the canonical one whichever copies are still racing.
var parityRows = []struct {
	name string
	repl *ReplicationConfig
}{
	{"plain", nil},
	{"replicated", &ReplicationConfig{Threshold: 100 * units.KB, Copies: 2}},
}

func TestStreamStatsMatchesRecords(t *testing.T) {
	flows := streamTestFlows(t, 400)
	for _, row := range parityRows {
		t.Run(row.name, func(t *testing.T) {
			exact, streamed := streamParityRuns(t, flows, 30*units.Second, row.repl)
			if got := exact.CompletedCount(AllFlows); got != 400 {
				t.Fatalf("only %d/400 completed; test wants a fully finished run", got)
			}
			assertStreamParity(t, exact, streamed)
			assertSameOutputs(t, exact, streamed)
		})
	}
}

// TestStreamStatsCrossCheck is the at-scale accuracy gate: the same
// 20k-flow workload run with records and streamed, every counter
// metric exactly equal and every percentile within the sketch's
// documented bound of the exact order statistics. The bound is relative,
// so a larger run proves nothing more; the sketch's bucket collapse is
// pinned in internal/stats, not here.
func TestStreamStatsCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-flow cross-check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("single-goroutine scale test; skipped under -race")
	}
	const n = 20_000
	flows := streamTestFlows(t, n)
	exact, err := Run(streamTestScenario(flows, 120*units.Second))
	if err != nil {
		t.Fatal(err)
	}
	sc := streamTestScenario(flows, 120*units.Second)
	sc.StreamStats = true
	streamed, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := exact.CompletedCount(AllFlows); got != n {
		t.Fatalf("only %d/%d completed; test wants a fully finished run", got, n)
	}
	assertStreamParity(t, exact, streamed)
}

// A truncated run leaves flows unfinished — and, replicated, losing
// copies still racing; both modes fold the open flows at EndTime in open
// order, so the streamed run must count them exactly as the
// record-based accessors do (deadline misses at EndTime, goodput over
// active time).
func TestStreamStatsMatchesRecordsWithUnfinished(t *testing.T) {
	flows := streamTestFlows(t, 400)
	for _, row := range parityRows {
		t.Run(row.name, func(t *testing.T) {
			exact, streamed := streamParityRuns(t, flows, flows[len(flows)-1].Start/2, row.repl)
			if exact.CompletedCount(AllFlows) >= exact.Count(AllFlows) {
				t.Fatal("test wants unfinished flows")
			}
			assertStreamParity(t, exact, streamed)
			assertSameOutputs(t, exact, streamed)
		})
	}
}

// A lazy source and the same flows collected and replayed through
// workload.Arrivals carry the same indices through one pump, so they
// must produce the same Result to the last field — streamed, with
// records kept, and with replication.
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
		{"streamed", func(sc *Scenario) { sc.StreamStats = true }},
		{"records", func(*Scenario) {}},
		{"replicated", func(sc *Scenario) {
			sc.Replication = &ReplicationConfig{Threshold: 100 * units.KB, Copies: 2}
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
	for _, repl := range []*ReplicationConfig{nil, {Threshold: 100 * units.KB, Copies: 2}} {
		sc := streamTestScenario(flows, units.Second)
		sc.StopWhenDone = false
		sc.Replication = repl
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Flows) != 2 || res.Count(AllFlows) != 2 || res.CompletedCount(AllFlows) != 2 {
			t.Fatalf("replication %v: %d records, %d counted, %d completed; want 2 each",
				repl != nil, len(res.Flows), res.Count(AllFlows), res.CompletedCount(AllFlows))
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

package sim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/stats"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// arrivalOrderFlows is the adversarial arrival pattern: 400 flows from
// leaf 0's four hosts to leaf 1's, starts drawn on a 500 µs grid and
// left unsorted, so starts tie with each other, with TLB's 500 µs
// ticker and with the 1 ms goodput ticker.
func arrivalOrderFlows() []workload.Flow {
	rng := eventsim.NewRNG(20)
	flows := make([]workload.Flow, 400)
	for i := range flows {
		flows[i] = workload.Flow{
			Src:   rng.Intn(4),
			Dst:   4 + rng.Intn(4),
			Size:  2*units.KB + units.Bytes(rng.Intn(int(298*units.KB)+1)),
			Start: units.Time(rng.Intn(40)) * 500 * units.Microsecond,
		}
	}
	return flows
}

// arrivalOrderLine reduces one run to its pinned line. Flow records are
// keyed by flow index (FlowID.Port), not by their position in
// Result.Flows.
func arrivalOrderLine(cell string, res *Result) string {
	recs := append([]*transport.FlowStats(nil), res.Flows...)
	sort.Slice(recs, func(a, b int) bool { return recs[a].ID.Port < recs[b].ID.Port })
	h := sha256.New()
	for _, fs := range recs {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", fs.ID.Port, int64(fs.Start), int64(fs.End),
			fs.Retransmits, fs.PacketsRecv, fs.OutOfOrder, fs.DupAcksSent)
	}
	for _, ts := range []*stats.TimeSeries{
		res.ShortQueueDelayUs, res.ShortOOORatio, res.LongOOORatio,
		res.ShortGoodputBytes, res.LongGoodputBytes,
	} {
		if ts == nil {
			fmt.Fprintln(h, "-")
			continue
		}
		// Means carries the bucket counts' effect, Sums the raw float sums.
		fmt.Fprintf(h, "%x %x\n", ts.Means(), ts.Sums())
	}
	return fmt.Sprintf("%s end=%d drops=%d records=%d sha256=%x\n",
		cell, int64(res.EndTime), res.Drops, len(res.Flows), h.Sum(nil))
}

// TestArrivalOrderPinned pins the order in which the runner admits
// arrivals. Flows open in (Start, index) order whatever order the slice
// lists them in, and an arrival that shares its instant with another
// counter-sequenced event (a scheme's ticker, the goodput sampler)
// keeps its side of that tie; FlowID.Port, ECMP hashes and every
// measurement downstream follow from it. The figure goldens and bench
// digests move with arrival order too, but not with a pointer to the
// cause and not on tied instants by design. Regenerate (only when the
// order is meant to change) with
//
//	TLB_UPDATE_GOLDEN=1 go test ./internal/sim -run TestArrivalOrderPinned
func TestArrivalOrderPinned(t *testing.T) {
	flows := arrivalOrderFlows()
	var got strings.Builder
	for _, scheme := range []struct {
		name string
		f    lb.Factory
	}{
		{"tlb", smallTLB()},
		{"rps", lb.RPS()},
		{"presto", lb.Presto()},
		{"letflow", lb.LetFlow(lb.LetFlowGap)},
	} {
		for _, replicated := range []bool{false, true} {
			for _, series := range []bool{false, true} {
				sc := Scenario{
					Name: "arrival-order", Topology: smallTopo(),
					Balancer: scheme.f, SchemeName: scheme.name, Seed: 3,
					Flows: flows, StopWhenDone: true, MaxTime: 5 * units.Second,
					CollectTimeSeries: series,
				}
				cell := scheme.name
				if replicated {
					sc.Replication = &ReplicationConfig{Threshold: 100 * units.KB, Copies: 2}
					cell += " replicated"
				}
				if series {
					cell += " series"
				}
				res, err := Run(sc)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if res.CompletedCount(AllFlows) != len(flows) {
					t.Fatalf("%s: %d of %d flows completed", cell, res.CompletedCount(AllFlows), len(flows))
				}
				got.WriteString(arrivalOrderLine(cell, res))
			}
		}
	}

	path := filepath.Join("testdata", "arrival-order.txt")
	if os.Getenv("TLB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with TLB_UPDATE_GOLDEN=1)", err)
	}
	if got.String() != string(want) {
		t.Errorf("runs differ from %s: arrivals are no longer admitted in (Start, index) order, or no longer keep their side of a same-instant tie\n--- got ---\n%s--- want ---\n%s",
			path, got.String(), want)
	}
}

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tlb/internal/report"
	"tlb/internal/spec"
	"tlb/internal/units"

	// Schemes used by submitted specs register themselves.
	_ "tlb/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	return s, ts
}

// submit POSTs the body and returns the decoded response and status.
func submit(t *testing.T, ts *httptest.Server, body []byte) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("submit response %q: %v", raw, err)
		}
	} else {
		out["error"] = string(raw)
	}
	return out, resp.StatusCode
}

type sseEvent struct {
	name string
	data string
}

// readSSE consumes the run's event stream until it closes (the server
// ends it after the run-level end frame) and returns the events.
func readSSE(t *testing.T, ts *httptest.Server, id string, during func(sseEvent)) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if during != nil {
					during(cur)
				}
			}
			cur = sseEvent{}
		}
	}
	return events
}

func quickstartSpec(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// slowSpec builds a spec that runs long enough (tens of sim-ms) to be
// canceled mid-flight.
func slowSpec(name, runID string) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version,
		Name:    name,
		RunID:   runID,
		Seed:    3,
		Scheme:  spec.Scheme{Name: "ecmp"},
		Topology: spec.Topology{
			Leaves: 2, Spines: 2, HostsPerLeaf: 2,
			HostLink:   spec.Link{Bandwidth: spec.Bw(units.Gbps), Delay: spec.Dur(5 * units.Microsecond)},
			FabricLink: spec.Link{Bandwidth: spec.Bw(units.Gbps), Delay: spec.Dur(10 * units.Microsecond)},
			Queue:      spec.Queue{Capacity: 256, ECNThreshold: 20},
		},
		Workload: spec.Workload{
			Kind: "mix",
			Groups: []spec.MixGroup{{
				Longs:     4,
				LongSizes: &spec.SizeDist{Kind: "fixed", Size: spec.Sz(50 * units.MB)},
			}},
		},
		Run: spec.Run{MaxTime: spec.Dur(30 * units.Second), StopWhenDone: true},
	}
}

func marshal(t *testing.T, sp *spec.Spec) []byte {
	t.Helper()
	data, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeSmoke is the end-to-end path the Makefile's serve-smoke
// target runs under -race: POST the quickstart spec, watch ≥1 snapshot
// then the terminal events over SSE, fetch the report and pin its
// structural skeleton.
func TestServeSmoke(t *testing.T) {
	_, ts := newTestServer(t, Options{SnapshotEvery: 500 * units.Microsecond})
	out, code := submit(t, ts, quickstartSpec(t))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out["error"])
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no run id in %v", out)
	}

	events := readSSE(t, ts, id, nil)
	var snapshots, dones, ends int
	for _, ev := range events {
		switch ev.name {
		case "snapshot":
			snapshots++
			if !strings.Contains(ev.data, `"run":"`+id+`"`) {
				t.Fatalf("snapshot missing run id echo: %s", ev.data)
			}
		case "done":
			dones++
		case "end":
			ends++
		}
	}
	if snapshots < 1 {
		t.Fatalf("no snapshot events (got %d events total)", len(events))
	}
	if dones != 1 || ends != 1 {
		t.Fatalf("terminal events: %d done, %d end; want 1 and 1", dones, ends)
	}
	if last := events[len(events)-1]; last.name != "end" {
		t.Fatalf("stream ended with %q, want end", last.name)
	}
	// Done events arrive after every snapshot of their scenario.
	if events[len(events)-2].name != "done" {
		t.Fatalf("event before end is %q, want done", events[len(events)-2].name)
	}

	// A live-aggregate snapshot carries class stats with completions.
	var lastSnap map[string]any
	for _, ev := range events {
		if ev.name == "done" {
			if err := json.Unmarshal([]byte(ev.data), &lastSnap); err != nil {
				t.Fatalf("done payload: %v", err)
			}
		}
	}
	if lastSnap["classes"] == nil {
		t.Fatalf("done event has no class aggregates: %v", lastSnap)
	}

	// Replay: a second subscriber after completion sees the same stream.
	replay := readSSE(t, ts, id, nil)
	if len(replay) != len(events) {
		t.Fatalf("replay returned %d events, live stream had %d", len(replay), len(events))
	}

	// Report: fetch and pin the structural skeleton.
	resp, err := http.Get(ts.URL + "/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	doc, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d: %s", resp.StatusCode, doc)
	}
	// The quickstart run outlasts its link's down and restore, and the
	// report draws one marker for each, as tlbsim -report does.
	for _, op := range []string{"down", "restore"} {
		if n := bytes.Count(doc, []byte(" "+op+"</title>")); n != 1 {
			t.Errorf("report shows %d %s markers, want 1", n, op)
		}
	}
	got := report.Skeleton(doc)
	golden := filepath.Join("testdata", "report_skeleton.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("report skeleton drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Status reflects completion.
	var st map[string]any
	sresp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["done"] != true || st["completed"] != float64(1) {
		t.Fatalf("status after completion: %v", st)
	}
}

// TestServeDeleteMidRun cancels a running campaign with DELETE: the
// SSE stream must still terminate with per-scenario done events plus a
// canceled end frame, and no goroutines may leak once the server
// closes.
func TestServeDeleteMidRun(t *testing.T) {
	s := New(Options{SnapshotEvery: 200 * units.Microsecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	body := []byte("[" + string(marshal(t, slowSpec("slow-a", "cancelme"))) + "," +
		string(marshal(t, slowSpec("slow-b", ""))) + "]")
	out, code := submit(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out["error"])
	}
	id, _ := out["id"].(string)
	if id != "cancelme" {
		t.Fatalf("run id %q, want the spec's runId echoed", id)
	}

	deleted := false
	events := readSSE(t, ts, id, func(ev sseEvent) {
		if ev.name == "snapshot" && !deleted {
			deleted = true
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("delete status %d", resp.StatusCode)
			}
		}
	})
	if !deleted {
		t.Fatal("no snapshot event arrived to trigger the delete")
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.name != "end" {
		t.Fatalf("stream ended with %q, want end", last.name)
	}
	var end map[string]any
	if err := json.Unmarshal([]byte(last.data), &end); err != nil {
		t.Fatal(err)
	}
	if end["canceled"] != true {
		t.Fatalf("end frame not marked canceled: %v", end)
	}
	if errText, _ := end["error"].(string); !strings.Contains(errText, "run canceled") {
		t.Fatalf("end frame error %q does not say run canceled", errText)
	}
	dones := 0
	for _, ev := range events {
		if ev.name == "done" {
			dones++
		}
	}
	if dones != 2 {
		t.Fatalf("%d done events after cancel, want one per scenario", dones)
	}

	// The canceled run's sessions are freed: after Close joins the
	// executor, the goroutine count settles back to the baseline.
	s.Close()
	ts.Close()
	settled := false
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			settled = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !settled {
		t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), baseline)
	}
}

// TestServeRejectsBadSpecs: submission errors surface the spec layer's
// JSON-path messages with a 400, and bad ids conflict with 409.
func TestServeRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, wantSub string
	}{
		{"empty", "", "empty request body"},
		{"garbage", "{not json", "specs[0]"},
		{"unknown field", `{"version":1,"nonsense":true}`, "nonsense"},
		{"empty array", "[]", "campaign array is empty"},
		{"bad scheme", string(marshalMut(t, func(sp *spec.Spec) { sp.Scheme.Name = "warp-drive" })), "warp-drive"},
	}
	for _, tc := range cases {
		out, code := submit(t, ts, []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, tc.wantSub) {
			t.Fatalf("%s: error %q missing %q", tc.name, msg, tc.wantSub)
		}
	}

	// Unknown run → 404; duplicate runId → 409.
	resp, err := http.Get(ts.URL + "/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run status %d", resp.StatusCode)
	}
	if _, code := submit(t, ts, marshal(t, slowSpec("dup", "dup-id"))); code != http.StatusAccepted {
		t.Fatalf("first dup-id submit: %d", code)
	}
	out, code := submit(t, ts, marshal(t, slowSpec("dup2", "dup-id")))
	if code != http.StatusConflict {
		t.Fatalf("duplicate runId: %d %v", code, out)
	}
}

func marshalMut(t *testing.T, mut func(*spec.Spec)) []byte {
	t.Helper()
	sp := slowSpec("mut", "")
	mut(sp)
	data, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

const (
	// Set-up is sampled before every round, so its samples spread over
	// the whole invocation like the repetitions do: setupFirst samples
	// before the first round and setupLater before each further one,
	// which makes at least 21 over the three rounds an end-to-end pass
	// always runs. A sample times enough back-to-back cycles to last
	// setupSampleMin, so a microsecond-scale set-up still repeats.
	setupFirst     = 11
	setupLater     = 5
	setupSampleMin = time.Millisecond
	// childTimeout ends a repetition that hangs; a healthy one takes
	// well under ten seconds.
	childTimeout = 150 * time.Second
)

// options are the harness arguments of one invocation.
type options struct {
	seed    uint64
	only    string  // one workload name, or "" for all
	trace   int     // 0 end-to-end pass, 1 traced pass, -1 both
	reps    int     // rounds, when seconds is 0
	seconds float64 // measuring budget; 0 means run exactly reps rounds
	outDir  string
	golden  bool // rewrite golden/digests.json from this run
}

// job is one (workload, pass) the round-robin visits.
type job struct {
	w      workloadDef
	traced bool
	into   *[]*repReport
	// once marks a reference repetition needed for its digest only.
	once bool
}

// sampleSetup times the set-up path in this process n times and
// appends the seconds per cycle to r.setup.
func (r *workloadRuns) sampleSetup(n int) error {
	for i := 0; i < n; i++ {
		cycles := 0
		t0 := now()
		for cycles == 0 || now()-t0 < int64(setupSampleMin) {
			if _, err := r.def.compile(r.seed, 1); err != nil {
				return err
			}
			cycles++
		}
		r.setup = append(r.setup, float64(now()-t0)/1e9/float64(cycles))
	}
	return nil
}

// spawnRep runs one repetition in a fresh process: the harness
// re-executes its own binary in child mode and reads the report from
// its standard output.
func spawnRep(w workloadDef, seed uint64, traced bool) (*repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", w.Name, "-seed", strconv.FormatUint(seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	// The child must not outlive a killed harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition of %s: %w", w.Name, err)
	}
	rep := &repReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("repetition of %s: bad report: %w", w.Name, err)
	}
	return rep, nil
}

// run executes the selected workloads and reports them. Repetitions
// are interleaved round-robin across workloads and passes, so host
// drift during the invocation hits all of them equally.
func run(o options, stdout io.Writer) error {
	if _, ok := findWorkload(o.only); o.only != "" && !ok {
		return fmt.Errorf("unknown workload %q (have: %s)", o.only, workloadNames())
	}
	var runs []*workloadRuns
	for _, w := range workloads {
		// A traced run of one workload takes the workload that must
		// reproduce it (its sharded twin) alongside, so the twin's digest
		// is checked and its speed-up reported without it being a gated
		// workload of its own.
		alongside := o.only != "" && o.trace != 0 && w.Baseline == o.only
		if o.only == "" || o.only == w.Name || alongside {
			runs = append(runs, &workloadRuns{def: w, seed: o.seed})
		}
	}
	byName := func(name string) *workloadRuns {
		for _, r := range runs {
			if r.def.Name == name {
				return r
			}
		}
		return nil
	}

	var jobs []job
	for _, r := range runs {
		jobs = append(jobs, job{w: r.def, into: &r.untraced})
		if o.trace != 0 && (o.only == "" || o.only == r.def.Name) {
			jobs = append(jobs, job{w: r.def, traced: true, into: &r.traced})
		}
		if r.def.Baseline != "" && byName(r.def.Baseline) == nil {
			// The baseline workload is not part of this invocation: run it
			// alongside for the speed-up ratios, or once for its digest.
			base, _ := findWorkload(r.def.Baseline)
			jobs = append(jobs, job{w: base, into: &r.baseline, once: o.trace == 0})
		}
	}

	minRounds := 1
	if o.trace == 0 {
		minRounds = 3
	}
	var elapsed float64 // seconds spent measuring
	for round := 1; ; round++ {
		start := time.Now()
		if o.trace != 1 {
			n := setupLater
			if round == 1 {
				n = setupFirst
			}
			for _, r := range runs {
				if err := r.sampleSetup(n); err != nil {
					return err
				}
			}
		}
		for _, j := range jobs {
			if j.once && round > 1 {
				continue
			}
			rep, err := spawnRep(j.w, o.seed, j.traced)
			if err != nil {
				return err
			}
			*j.into = append(*j.into, rep)
		}
		elapsed += time.Since(start).Seconds()
		if o.seconds <= 0 {
			if round >= o.reps {
				break
			}
			continue
		}
		// Stop when another round would overshoot the budget.
		if round >= minRounds && elapsed+elapsed/float64(round) > o.seconds {
			break
		}
	}
	for _, r := range runs {
		if base := byName(r.def.Baseline); base != nil {
			r.baseline = base.untraced
			if o.only == base.def.Name {
				base.twin = r
			}
		}
	}

	golden, err := loadGolden()
	if err != nil {
		return err
	}
	file := resultsFile{Seed: o.seed}
	ok := true
	for _, r := range runs {
		want := ""
		if o.seed == defaultSeed {
			want = golden[r.def.Name]
		}
		res := r.result(o.trace, want)
		printWorkload(stdout, r, res)
		file.Workloads = append(file.Workloads, res)
		ok = ok && res.Correct
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	name := o.only
	if name == "" {
		name = "all"
	}
	if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("results-%s-seed%d.json", name, o.seed)), file); err != nil {
		return err
	}
	if o.trace != 0 {
		if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", name, o.seed)), traceFile(runs)); err != nil {
			return err
		}
	}
	if o.golden {
		if err := updateGolden(o, golden, file); err != nil {
			return err
		}
	}
	if o.only != "" && o.trace >= 0 {
		// One workload, one pass: the machine-readable result line.
		for _, res := range file.Workloads {
			if res.Name == o.only {
				return printResultLine(stdout, res, o.trace)
			}
		}
	}
	if !ok {
		return fmt.Errorf("output check failed")
	}
	return nil
}

// workloadResult is one workload's part of the results file: the
// samples of every end-to-end metric (what -compare judges), the
// per-layer values, and the output check.
type workloadResult struct {
	Name       string              `json:"name"`
	EndToEnd   map[string]measured `json:"end_to_end,omitempty"`
	PerLayer   map[string]float64  `json:"per_layer,omitempty"`
	Digest     string              `json:"digest"`
	Events     uint64              `json:"events"`
	PacketHops int64               `json:"packet_hops"`
	Attempted  int64               `json:"attempted"`
	Failed     int64               `json:"failed"`
	Correct    bool                `json:"correct"`
	Notes      []string            `json:"notes,omitempty"`
}

type resultsFile struct {
	Seed      uint64           `json:"seed"`
	Workloads []workloadResult `json:"workloads"`
}

func (r *workloadRuns) result(trace int, goldenDigest string) workloadResult {
	res := workloadResult{Name: r.def.Name}
	res.Attempted, res.Failed, res.Notes = r.check()
	res.Correct = res.Failed == 0 && len(res.Notes) == 0 && res.Attempted > 0
	if trace != 1 {
		res.EndToEnd = r.endToEndValues()
	}
	if trace != 0 {
		res.PerLayer = r.perLayerValues(goldenDigest)
	}
	if len(r.untraced) > 0 {
		first := r.untraced[0]
		res.Digest, res.Events, res.PacketHops = first.Digest, first.Events, first.PacketHops
	}
	return res
}

// printWorkload writes the human-readable report: every metric by name
// with its unit; timings as median with min, quartiles and n.
func printWorkload(w io.Writer, r *workloadRuns, res workloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  repetitions: %d untraced, %d traced\n",
		r.def.Name, r.seed, len(r.untraced), len(r.traced))
	if res.EndToEnd != nil {
		fmt.Fprintf(w, "  %-18s %12s   %12s %12s %12s %12s %4s  %s\n",
			"end-to-end", "value", "sample min", "q1", "median", "q3", "n", "unit")
		for _, d := range endToEnd {
			m := res.EndToEnd[d.Name]
			q1, q2, q3 := quartiles(m.Samples)
			lo := q2
			for _, x := range m.Samples {
				lo = min(lo, x)
			}
			fmt.Fprintf(w, "  %-18s %12.6g   %12.6g %12.6g %12.6g %12.6g %4d  %s\n",
				d.Name, m.Value, lo, q1, q2, q3, len(m.Samples), d.Unit)
		}
	}
	if res.PerLayer != nil {
		fmt.Fprintf(w, "  %-32s %14s  %s\n", "per-layer", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g  %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
	fmt.Fprintf(w, "  check: attempted %d flows, failed %d, failed_share %g, digest %.16s, events %d, packet-hops %d\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Digest, res.Events, res.PacketHops)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

// printResultLine writes the one-line JSON result of a single-workload,
// single-pass run: the end-to-end metrics as medians with trace 0, the
// per-layer metrics with trace 1.
func printResultLine(w io.Writer, res workloadResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 0 {
		for _, d := range endToEnd {
			metrics[d.Name] = value{res.EndToEnd[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range perLayer {
			metrics[d.Name] = value{res.PerLayer[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// traceFile gathers the traced repetitions' span aggregates, and the
// bounded span sample of each workload's last traced repetition.
func traceFile(runs []*workloadRuns) any {
	type repTrace struct {
		Spans  []spanAgg          `json:"spans"`
		Cost   spanCost           `json:"span_cost"`
		Picks  []pickAgg          `json:"picks,omitempty"`
		Probes map[string]float64 `json:"probes,omitempty"`
	}
	type workloadTrace struct {
		Name   string       `json:"name"`
		Reps   []repTrace   `json:"repetitions"`
		Sample []spanRecord `json:"span_sample"`
	}
	var out []workloadTrace
	for _, r := range runs {
		wt := workloadTrace{Name: r.def.Name}
		for _, t := range r.traced {
			wt.Reps = append(wt.Reps, repTrace{t.Spans, t.Cost, t.Picks, t.Probes})
			wt.Sample = t.Sample
		}
		out = append(out, wt)
	}
	return out
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadGolden returns the digests pinned for the default seed.
func loadGolden() (map[string]string, error) {
	data, err := files.ReadFile("golden/digests.json")
	if err != nil {
		return nil, err
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden/digests.json: %w", err)
	}
	return golden, nil
}

// goldenPath is where -update-golden writes, relative to the
// repository root the harness is run from.
const goldenPath = "bench/golden/digests.json"

// updateGolden pins this run's digests.
func updateGolden(o options, golden map[string]string, file resultsFile) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("-update-golden pins the default seed %d, not %d", defaultSeed, o.seed)
	}
	for _, w := range file.Workloads {
		if !w.Correct {
			return fmt.Errorf("-update-golden: %s failed its output check", w.Name)
		}
		golden[w.Name] = w.Digest
	}
	return writeJSON(goldenPath, golden)
}

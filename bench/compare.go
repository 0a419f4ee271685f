package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the
// end-to-end metrics' direction and regression bound, and why each
// workload was chosen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchmarkSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := &resultsFile{}
	if err := json.Unmarshal(data, file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// verdict judges one end-to-end metric on one workload by the
// benchmark's own rule: the new value may be worse than the old by at
// most the bound; where the spread of the raw samples (interquartile
// range over median, of either side) exceeds the bound the pair is
// unresolved, unless every new sample is better than every old one.
func verdict(old, new measured, lowerIsBetter bool, bound float64) (string, float64) {
	// worse is the relative change in the bad direction.
	worse := ratio(new.Value-old.Value, old.Value)
	if !lowerIsBetter {
		worse = -worse
	}
	noise := max(spread(old.Samples), spread(new.Samples))
	if noise > bound {
		allBetter := len(old.Samples) > 0 && len(new.Samples) > 0
		for _, o := range old.Samples {
			for _, n := range new.Samples {
				if (lowerIsBetter && n >= o) || (!lowerIsBetter && n <= o) {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "better", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > bound:
		return "worse", worse
	case -worse > noise:
		return "better", worse
	}
	return "within bound", worse
}

// compare prints one row per end-to-end metric × workload of two
// results files and reports whether any row is worse.
func compare(w io.Writer, spec *benchmarkSpec, oldFile, newFile *resultsFile) (anyWorse bool) {
	fmt.Fprintf(w, "%-22s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, nw := range newFile.Workloads {
		var ow *workloadResult
		for i := range oldFile.Workloads {
			if oldFile.Workloads[i].Name == nw.Name {
				ow = &oldFile.Workloads[i]
			}
		}
		if ow == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			old, new := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if len(old.Samples) == 0 || len(new.Samples) == 0 {
				continue
			}
			v, worse := verdict(old, new, m.Better == "lower", m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-22s %-16s %12.6g %12.6g %+8.2f%% %6.0f%%  %s\n",
				nw.Name, m.Name, old.Value, new.Value, worse*100, m.Bound*100, v)
		}
		if ow.Digest != nw.Digest || ow.Events != nw.Events || ow.PacketHops != nw.PacketHops {
			fmt.Fprintf(w, "%-22s simulated output differs: digest %.12s -> %.12s, events %d -> %d, packet-hops %d -> %d\n",
				nw.Name, ow.Digest, nw.Digest, ow.Events, nw.Events, ow.PacketHops, nw.PacketHops)
		}
	}
	return anyWorse
}

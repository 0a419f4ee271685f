// Command simlint runs the repository's custom static analyzer over
// the module. It enforces the determinism, unit-safety, ownership and
// run-isolation contract documented in DESIGN.md ("Determinism
// contract" and "Static enforcement"): nowallclock, noglobalrand,
// maporder, floateq, unitliteral, packetown, handlelife, dimcheck and
// sharedstate, plus the directive meta-diagnostics (simlint,
// unusedallow).
//
// Usage:
//
//	simlint [-C dir] [-json] [-sarif file] [./...]
//
// simlint always lints the whole module containing dir (the module is
// small; whole-module analysis is what makes the type-based rules
// sound), so the conventional ./... pattern is accepted and implied.
//
// By default findings print as file:line: ID: rule: message. -json
// streams them as one JSON array on stdout instead; -sarif writes a
// SARIF 2.1.0 log to the named file (in addition to whichever of the
// other two formats is active), for editors and CI annotation. Every
// diagnostic carries its stable SIMxxx ID, which never changes even if
// a rule is renamed. The exit status is 1 when anything is found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tlb/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "directory inside the module to lint")
	jsonOut := flag.Bool("json", false, "print findings as a JSON array instead of text")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 log to this file")
	flag.Parse()

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: %s: %s: %s\n", f.File, f.Line, f.ID(), f.Rule, f.Msg)
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, findings); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable shape of one finding. The id is
// the stable key; the rule name is advisory and may be renamed.
type jsonFinding struct {
	ID   string `json:"id"`
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Msg  string `json:"message"`
}

func writeJSON(w *os.File, findings []lint.Finding) error {
	out := make([]jsonFinding, len(findings))
	for i, f := range findings {
		out[i] = jsonFinding{ID: f.ID(), Rule: f.Rule, File: f.File, Line: f.Line, Msg: f.Msg}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0 structures, reduced to the fields CI annotators consume.

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	Name             string       `json:"name"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

func writeSARIF(path string, findings []lint.Finding) error {
	var rules []sarifRule
	for _, name := range lint.Rules() {
		rules = append(rules, sarifRule{
			ID:               lint.RuleID(name),
			Name:             name,
			ShortDescription: sarifMessage{Text: lint.RuleDoc(name)},
		})
	}
	results := make([]sarifResult, len(findings))
	for i, f := range findings {
		results[i] = sarifResult{
			RuleID:  f.ID(),
			Level:   "error",
			Message: sarifMessage{Text: fmt.Sprintf("%s: %s", f.Rule, f.Msg)},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File},
					Region:           sarifRegion{StartLine: f.Line},
				},
			}},
		}
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "simlint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

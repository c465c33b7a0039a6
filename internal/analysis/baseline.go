package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// JSONFinding is one diagnostic in the machine-readable report. File paths
// are module-root-relative and slash-separated so the checked-in baseline is
// stable across checkouts and platforms.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSONReport is the cadmc-vet -json output and the schema of the checked-in
// vet-baseline.json.
type JSONReport struct {
	Module    string        `json:"module"`
	Analyzers []string      `json:"analyzers"`
	Findings  []JSONFinding `json:"findings"`
}

// NewJSONReport converts diagnostics into the report form, relativising
// file paths against the module root.
func NewJSONReport(module string, suite []*Analyzer, root string, diags []Diagnostic) JSONReport {
	names := make([]string, len(suite))
	for i, a := range suite {
		names[i] = a.Name
	}
	findings := make([]JSONFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, JSONFinding{
			File:     file,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return JSONReport{Module: module, Analyzers: names, Findings: findings}
}

// LoadBaseline reads a JSONReport from disk.
func LoadBaseline(path string) (*JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analysis: read baseline: %w", err)
	}
	var report JSONReport
	if err := json.Unmarshal(data, &report); err != nil {
		return nil, fmt.Errorf("analysis: parse baseline %s: %w", path, err)
	}
	return &report, nil
}

// Delta is the two-sided difference between the current findings and a
// baseline. Both sides fail the gate: New findings are regressions, Stale
// entries mean the baseline credits a finding that was fixed (or moved) and
// must be regenerated so it cannot silently re-grow.
type Delta struct {
	New   []JSONFinding
	Stale []JSONFinding
}

// Empty reports whether current findings and baseline agree.
func (d Delta) Empty() bool { return len(d.New) == 0 && len(d.Stale) == 0 }

// baselineKey identifies a finding across line-number drift: moving code
// around a known finding does not churn the baseline, fixing or introducing
// one does.
func baselineKey(f JSONFinding) string {
	return f.File + "\x00" + f.Analyzer + "\x00" + f.Message
}

// DiffBaseline compares current findings against baseline entries by
// (file, analyzer, message), preserving input order on both sides.
func DiffBaseline(current, baseline []JSONFinding) Delta {
	inBase := make(map[string]bool, len(baseline))
	for _, f := range baseline {
		inBase[baselineKey(f)] = true
	}
	inCur := make(map[string]bool, len(current))
	for _, f := range current {
		inCur[baselineKey(f)] = true
	}
	var d Delta
	for _, f := range current {
		if !inBase[baselineKey(f)] {
			d.New = append(d.New, f)
		}
	}
	for _, f := range baseline {
		if !inCur[baselineKey(f)] {
			d.Stale = append(d.Stale, f)
		}
	}
	return d
}

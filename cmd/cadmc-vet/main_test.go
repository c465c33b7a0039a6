package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cadmc/internal/analysis"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}

// TestVetRepoClean is the gate's smoke test: the full suite, with
// cross-package facts, over every package of the module must report
// nothing, and the checked-in baseline must agree (no new findings, no
// stale entries, and a header naming exactly the analyzers that run). It
// exercises exactly what scripts/check.sh runs, so plain `go test ./...`
// already enforces the repo's own invariants.
func TestVetRepoClean(t *testing.T) {
	root := repoRoot(t)
	paths, err := analysis.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("pattern expansion found only %d packages: %v", len(paths), paths)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	suite := analysis.All()
	diags, err := analysis.RunAll(loader, paths, suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	report := analysis.NewJSONReport(loader.Module(), suite, root, diags)
	base, err := analysis.LoadBaseline(filepath.Join(root, "vet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(base.Analyzers, report.Analyzers) {
		t.Errorf("vet-baseline.json lists analyzers %v, the suite runs %v; regenerate with make vet-json", base.Analyzers, report.Analyzers)
	}
	delta := analysis.DiffBaseline(report.Findings, base.Findings)
	for _, f := range delta.New {
		t.Errorf("new finding not in baseline: %+v", f)
	}
	for _, f := range delta.Stale {
		t.Errorf("stale baseline entry: %+v", f)
	}
}

// TestVetRunExitCodes pins the CLI contract: 0 clean, 1 findings or
// baseline delta, 2 usage/load error.
func TestVetRunExitCodes(t *testing.T) {
	var out, errOut strings.Builder

	if code := vetRun([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, want 0 (%s)", code, errOut.String())
	}
	for _, name := range []string{"seededrand", "mapiter", "arenapair", "deadline", "walltime"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output misses %s", name)
		}
	}

	if code := vetRun([]string{"-analyzers", "nosuch", "./..."}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown analyzer exit = %d, want 2", code)
	}
	if code := vetRun([]string{"-nosuchflag"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if code := vetRun([]string{"no/such/dir"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("bad pattern exit = %d, want 2", code)
	}

	// A clean package against an empty baseline passes; against a baseline
	// crediting a nonexistent finding, the stale entry fails the gate.
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"module":"cadmc","findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := vetRun([]string{"-baseline", empty, "internal/latency"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("clean package with empty baseline exit = %d, want 0", code)
	}
	stale := filepath.Join(dir, "stale.json")
	entry := `{"module":"cadmc","findings":[{"file":"internal/latency/device.go","line":1,"column":1,"analyzer":"mapiter","message":"ghost"}]}`
	if err := os.WriteFile(stale, []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	var staleErr strings.Builder
	if code := vetRun([]string{"-baseline", stale, "internal/latency"}, io.Discard, &staleErr); code != 1 {
		t.Errorf("stale baseline exit = %d, want 1", code)
	}
	if !strings.Contains(staleErr.String(), "stale baseline entry") {
		t.Errorf("stale baseline stderr = %q, want a stale-entry message", staleErr.String())
	}
}

// TestVetRunJSON checks the machine-readable output shape end to end.
func TestVetRunJSON(t *testing.T) {
	var out strings.Builder
	if code := vetRun([]string{"-json", "internal/latency"}, &out, io.Discard); code != 0 {
		t.Fatalf("-json exit = %d (%s)", code, out.String())
	}
	var report analysis.JSONReport
	if err := json.Unmarshal([]byte(out.String()), &report); err != nil {
		t.Fatalf("output is not a JSONReport: %v\n%s", err, out.String())
	}
	if report.Module != "cadmc" || len(report.Analyzers) != len(analysis.All()) || len(report.Findings) != 0 {
		t.Fatalf("report = %+v, want module cadmc, the full suite, no findings", report)
	}
}

// TestExpandPatterns pins the pattern grammar cadmc-vet accepts.
func TestExpandPatterns(t *testing.T) {
	root := repoRoot(t)
	all, err := analysis.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	wantSome := []string{"cadmc", "cadmc/internal/analysis", "cadmc/internal/serving", "cadmc/cmd/cadmc-vet"}
	for _, w := range wantSome {
		found := false
		for _, p := range all {
			if p == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("./... expansion misses %s (got %d packages)", w, len(all))
		}
	}
	one, err := analysis.Expand(root, []string{"internal/serving"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "cadmc/internal/serving" {
		t.Errorf("plain directory pattern = %v, want [cadmc/internal/serving]", one)
	}
	sub, err := analysis.Expand(root, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sub {
		if !strings.HasPrefix(p, "cadmc/internal/") {
			t.Errorf("./internal/... expansion leaked %s", p)
		}
	}
	if len(sub) < 5 {
		t.Errorf("./internal/... found only %d packages", len(sub))
	}
}

// TestCheckScript keeps scripts/check.sh — the single verification entry
// point — present, executable and wired to every gate.
func TestCheckScript(t *testing.T) {
	root := repoRoot(t)
	path := filepath.Join(root, "scripts", "check.sh")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("scripts/check.sh missing: %v", err)
	}
	if info.Mode()&0o111 == 0 {
		t.Error("scripts/check.sh is not executable")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	script := string(data)
	for _, gate := range []string{"gofmt -l", "go vet ./...", "go build ./...", "cmd/cadmc-vet", "-baseline vet-baseline.json", "go test -race ./..."} {
		if !strings.Contains(script, gate) {
			t.Errorf("check.sh does not run %q", gate)
		}
	}
}

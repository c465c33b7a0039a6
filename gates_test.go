package cadmc

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// gate is one structural rule of the code base, checked by reading the
// source: across the files `in` selects, exactly `want` lines match
// `pattern`. Each rule keeps one mechanism per job; `why` is what breaking
// it would bring back.
type gate struct {
	name, why string
	in        func(path string) bool // module-relative, slash-separated
	pattern   string
	want      int
}

// The file selectors the gates combine.
func goFile(p string) bool   { return strings.HasSuffix(p, ".go") }
func testFile(p string) bool { return strings.HasSuffix(p, "_test.go") }
func prodGo(p string) bool   { return goFile(p) && !testFile(p) }
func under(p, dir string) bool {
	return strings.HasPrefix(p, dir+"/")
}
func inDirNamed(p, name string) bool {
	return strings.Contains("/"+p, "/"+name+"/")
}
func only(path string) func(string) bool { return func(p string) bool { return p == path } }

var gates = []gate{
	{
		name:    "one offload channel: gob",
		why:     "encoding/gob stays a test oracle, off every production path",
		in:      func(p string) bool { return prodGo(p) && !inDirNamed(p, "analysis") },
		pattern: `"encoding/gob"`,
	},
	{
		name:    "one offload channel: deadlines",
		why:     "internal/serving takes no deadline exemptions",
		in:      func(p string) bool { return under(p, "internal/serving") },
		pattern: `cadmc:allow deadline`,
	},
	{
		name: "one offload call per batch",
		why:  "the budget is an argument and edge fallback is the policy, not extra offload interfaces",
		in: func(p string) bool {
			return goFile(p) && (under(p, "internal") || under(p, "cmd") || under(p, "examples") || !strings.Contains(p, "/"))
		},
		pattern: `\b(DeadlineOffloader|OffloadWithin|OffloadBatchWithin|InferBatchBudget|FallbackLocal)\b`,
	},
	{
		name:    "one loopback rig",
		why:     "serving.ServeLoopback is the only listener outside tests and benchmark/",
		in:      func(p string) bool { return prodGo(p) && !inDirNamed(p, "benchmark") },
		pattern: `net\.Listen\(`,
		want:    1,
	},
	{
		name: "one cost pass",
		why:  "nn.Model.Costs is the only per-layer shape pass outside internal/nn and benchmark/",
		in: func(p string) bool {
			return prodGo(p) && !inDirNamed(p, "benchmark") && !under(p, "internal/nn")
		},
		pattern: `InferDims\(|MACCsPerLayer\(|FeatureBytes\(`,
	},
	{
		name:    "one forward per decision: policy",
		why:     "the policy gradient reuses the sampling pass",
		in:      only("internal/rl/policy.go"),
		pattern: `p\.enc\.Forward\(`,
		want:    1,
	},
	{
		name:    "one forward per decision: controller",
		why:     "the policy gradient reuses the sampling pass",
		in:      only("internal/rl/policy.go"),
		pattern: `c\.enc\.Forward\(`,
		want:    1,
	},
	{
		name:    "one forward per decision: both controllers",
		why:     "one encoder forward per controller, two in all",
		in:      only("internal/rl/policy.go"),
		pattern: `enc\.Forward\(`,
		want:    2,
	},
	{
		name:    "one copy per plan: layer slice",
		why:     "ApplyPlan edits one copy of the layers",
		in:      only("internal/compress/plan.go"),
		pattern: `make\(\[\]nn\.Layer`,
		want:    1,
	},
	{
		name:    "one copy per plan: no clone",
		why:     "Applicable alone decides what binds; no per-action Clone or Apply",
		in:      only("internal/compress/plan.go"),
		pattern: `Clone\(\)|\.Apply\(`,
	},
	{
		name:    "no fused multiply-add",
		why:     "every assembly kernel keeps one rounding per product, bit-identical to its Go definition",
		in:      func(p string) bool { return under(p, "internal") && strings.HasSuffix(p, ".s") },
		pattern: `^\s*V?F(N)?M(ADD|SUB)`,
	},
	{
		name:    "direct kernel dispatch",
		why:     "a kernel reached through a function variable leaks its operands, so every stack accumulator handed to it is moved to the heap",
		in:      func(p string) bool { return prodGo(p) && under(p, "internal") },
		pattern: `\w*[Kk]ernel\w*\s+(=\s*)?func\(|=\s*gemvTAVX\b`,
	},
	{
		name:    "the lane kernel's path switch is for tests",
		why:     "no production code chooses GemvT's path; the CPU does, once",
		in:      prodGo,
		pattern: `lane\.SetAVX\(`,
	},
	{
		name:    "no gemvAcc",
		why:     "one matrix-vector kernel, gemvT",
		in:      func(p string) bool { return goFile(p) && under(p, "internal") },
		pattern: `gemvAcc`,
	},
	{
		name:    "owned workspaces: no pool",
		why:     "a forward's memory belongs to the goroutine that runs it, not to a process-wide pool",
		in:      func(p string) bool { return goFile(p) && under(p, "internal") },
		pattern: `sync\.Pool`,
	},
	{
		name:    "owned workspaces: no arena API",
		why:     "the pooled arena, its knob and its scratch API are gone",
		in:      goFile,
		pattern: `GetF64|PutF64|SetArena|ArenaEnabled|ArenaStats|Scratch\(`,
	},
}

// TestSourceGates reads every file a gate selects once — hidden directories
// and this file, which spells every pattern, aside — and checks each gate's
// line count.
func TestSourceGates(t *testing.T) {
	const self = "gates_test.go"
	lines := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		p := filepath.ToSlash(path)
		if p == self {
			return nil
		}
		for _, g := range gates {
			if g.in(p) {
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				lines[p] = strings.Split(string(data), "\n")
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		re := regexp.MustCompile(g.pattern)
		var hits []string
		for p, ls := range lines {
			if !g.in(p) {
				continue
			}
			for i, l := range ls {
				if re.MatchString(l) {
					hits = append(hits, fmt.Sprintf("%s:%d: %s", p, i+1, strings.TrimSpace(l)))
				}
			}
		}
		sort.Strings(hits)
		if len(hits) != g.want {
			t.Errorf("gate %q (%s): want %d matching lines of %s, got %d:\n\t%s",
				g.name, g.why, g.want, g.pattern, len(hits), strings.Join(hits, "\n\t"))
		}
	}
}

package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"cadmc/internal/parallel"
)

// deterministicFixture is a throwaway on-disk module whose packages carry
// known findings from several analyzers, so the determinism test compares
// real, ordered output rather than two empty reports.
func deterministicFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n\ngo 1.21\n",
		"internal/parallel/lock.go": `package parallel

import "sync"

func leak() {
	var mu sync.RWMutex
	mu.RLock()
}

func lockLeak(x bool) int {
	var mu sync.Mutex
	mu.Lock()
	if x {
		return 1
	}
	mu.Unlock()
	return 0
}
`,
		"internal/gateway/clock.go": `package gateway

import (
	"fmt"
	"time"
)

func stamp(m map[string]int) {
	_ = time.Now()
	for k := range m {
		fmt.Println(k)
	}
}

func spawn(x *int) {
	go func() { *x++ }()
}
`,
		"util/eq.go": `package util

func Eq(a, b float64) bool { return a == b }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunAllDeterministic pins the engine's core contract: RunAll renders
// bit-identical diagnostics whether the per-package passes run serially or
// fan out over the worker pool at any GOMAXPROCS. Block ordering inside the
// CFGs, the round-robin solver and the input-order merge in RunAll are all
// deterministic by construction; this test catches any of them regressing.
func TestRunAllDeterministic(t *testing.T) {
	dir := deterministicFixture(t)
	render := func() string {
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		paths, err := Expand(dir, []string{"./..."})
		if err != nil {
			t.Fatal(err)
		}
		diags, err := RunAll(loader, paths, All())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range diags {
			fmt.Fprintln(&sb, d)
		}
		return sb.String()
	}

	wasSerial := parallel.SetSerial(true)
	base := render()
	parallel.SetSerial(wasSerial)
	if base == "" {
		t.Fatal("fixture module produced no findings; the comparison would be vacuous")
	}
	for _, a := range []string{"lockbalance", "walltime", "mapiter", "nakedgo", "floateq"} {
		if !strings.Contains(base, "["+a+"]") {
			t.Errorf("fixture findings miss analyzer %s:\n%s", a, base)
		}
	}

	for _, procs := range []int{1, 4, 8} {
		old := runtime.GOMAXPROCS(procs)
		got := render()
		runtime.GOMAXPROCS(old)
		if got != base {
			t.Errorf("GOMAXPROCS=%d output differs from serial baseline:\nserial:\n%s\nparallel:\n%s", procs, base, got)
		}
	}
}

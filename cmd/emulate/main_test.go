package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output (for a PR that legitimately changes wire bytes)")

func TestRunSingleScenario(t *testing.T) {
	if err := run("emulation", "AlexNet", "Phone", "4G indoor static", true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	err := run("teleportation", "", "", "", true, 1)
	if err == nil {
		t.Fatal("expected unknown-mode error")
	}
	for _, mode := range []string{"emulation", "field", "live", "gateway", "integrity", "trace"} {
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("unknown-mode error %q does not name mode %q", err, mode)
		}
	}
	if err := run("field", "LeNet", "", "", true, 1); err == nil {
		t.Fatal("expected empty-selection error")
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := <-out
	if runErr != nil {
		t.Fatalf("%v\n%s", runErr, b)
	}
	return b
}

// The two deterministic replays must print the same bytes at every commit
// and every core count: the trace replay's waterfalls and exposition
// (including the serving.wire.* byte counters) and the live replay's route
// timeline are the repo's end-to-end check on the wire codec, the retry loop
// and the clock protocol. A PR that changes wire bytes on purpose reruns
// with -update and reviews the diff.
func TestReplayGoldens(t *testing.T) {
	cases := []struct {
		golden string
		run    func() error
	}{
		{"trace_seed1.golden", func() error {
			return dispatch("trace", "", "", "", false, 1, 60, 64, "", "", "")
		}},
		{"live_wifi_weak_seed4.golden", func() error {
			return dispatch("live", "", "", "WiFi (weak) indoor", false, 4, 60, 64, "", "", "")
		}},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range cases {
		path := filepath.Join("testdata", tc.golden)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got := captureStdout(t, tc.run)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s at GOMAXPROCS=%d: stdout differs from golden (rerun with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s",
					tc.golden, procs, got, want)
			}
		}
	}
}

package report

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cadmc/internal/emulator"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output (for a change that moves search numbers on purpose)")

// TestSearchGolden pins every number the offline search and the two replays
// produce for one VGG11 row and one AlexNet row at a small episode budget:
// the Table III rewards and each policy's emulation and field means. Values
// are written with strconv's shortest round-trip form, so a single changed
// bit anywhere in the cost model, the searchers or the replays fails it. A
// change that moves these numbers on purpose reruns with -update and
// reviews the diff.
func TestSearchGolden(t *testing.T) {
	opts := emulator.DefaultTrainOptions()
	opts.TreeEpisodes = 8
	opts.BranchEpisodes = 8
	specs := []emulator.ScenarioSpec{
		{ModelName: "VGG11", DeviceName: "TX2", EnvName: "WiFi (weak) indoor", TraceSeed: 109},
		{ModelName: "AlexNet", DeviceName: "Phone", EnvName: "WiFi (weak) indoor", TraceSeed: 111},
	}
	ev, err := Evaluate(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b bytes.Buffer
	for i, ts := range ev.Trained {
		fmt.Fprintf(&b, "%s train surgery=%s branch=%s tree=%s\n",
			ts.Spec, g(ts.SurgeryReward), g(ts.BranchReward), g(ts.TreeReward))
		for _, mode := range []struct {
			name string
			rs   []emulator.Result
		}{{"emulation", ev.Emu[i]}, {"field", ev.Field[i]}} {
			for _, r := range mode.rs {
				fmt.Fprintf(&b, "%s %s %s reward=%s latency=%s accuracy=%s energy=%s\n",
					ts.Spec, mode.name, r.Policy, g(r.MeanReward), g(r.MeanLatencyMS),
					g(r.MeanAccuracy), g(r.MeanEnergyMJ))
			}
		}
	}
	path := filepath.Join("testdata", "search.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("search numbers differ from %s (rerun with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s",
			path, b.Bytes(), want)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeEveryWorkload drives the whole rig at a fraction of its size:
// every workload untraced and traced, with the output checks on, and holds
// what each prints to the declared metric lists.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	for _, trace := range []bool{false, true} {
		if trace && testing.Short() {
			break
		}
		o := options{seed: 1, seconds: 0.4, trace: trace, quick: true, outDir: dir}
		for _, name := range workloads() {
			t0 := time.Now()
			out, err := run(name, o)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", name, trace, err)
			}
			t.Logf("%s (trace %t) took %v", name, trace, time.Since(t0))
			if out.attempted < 1 || out.failed != 0 {
				t.Errorf("%s (trace %t): attempted %d, failed %d", name, trace, out.attempted, out.failed)
			}
			var buf bytes.Buffer
			if _, err := emit(&buf, out, defsFor(trace)); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			defs := defsFor(trace)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %t): %d metrics printed, %d declared", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %t): metric %s missing or in %q, want %q", name, trace, d.name, m.Unit, d.unit)
				}
			}
			if !trace {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Errorf("%s: traced run left no span file: %v", name, err)
			}
		}
	}
}

// TestTracedRunSeparatesTheLayers checks, at smoke size, the separation the
// workloads were chosen for: offload_rtt pays one round trip per batched
// item, edge_compute never touches the offload channel.
func TestTracedRunSeparatesTheLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced runs")
	}
	o := options{seed: 2, seconds: 0.8, trace: true, quick: true, outDir: t.TempDir()}
	rtt, err := run("offload_rtt", o)
	if err != nil {
		t.Fatal(err)
	}
	if calls, perBatch, batch := rtt.metrics["serving.offload_calls"], rtt.metrics["serving.offloads_per_batch"], rtt.metrics["gateway.batch_mean"]; calls == 0 || perBatch < 1 || perBatch > gwMaxBatch {
		t.Errorf("offload_rtt: %v offload calls, %v per batch at mean batch %v", calls, perBatch, batch)
	}
	if injected, writes := rtt.metrics["faultnet.injected_ms"], rtt.metrics["serving.conn_writes"]; injected != 5*writes {
		t.Errorf("offload_rtt: %v ms injected over %v writes, want 5 ms each", injected, writes)
	}
	edge, err := run("edge_compute", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serving.offload_calls", "serving.conn_writes", "serving.wire_tx_bytes", "nn.cloud_suffix_ms"} {
		if v := edge.metrics[name]; v != 0 {
			t.Errorf("edge_compute: %s = %v, want 0", name, v)
		}
	}
	if edge.metrics["nn.edge_prefix_ms"] <= 0 || edge.metrics["nn.maccs"] <= 0 {
		t.Errorf("edge_compute: edge prefix %v ms over %v MACCs", edge.metrics["nn.edge_prefix_ms"], edge.metrics["nn.maccs"])
	}
}

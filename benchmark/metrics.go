package main

import (
	"fmt"
	"sort"
	"time"

	"cadmc/internal/parallel"
)

// metricDef is one metric the benchmark declares in BENCHMARK.json;
// schema_test.go holds the two lists equal. Only end-to-end metrics have a
// bound: the share of the earlier run's value by which a later one may be
// worse, which -selfcheck holds two runs of one commit to.
type metricDef struct {
	name, unit   string
	bound        float64
	higherBetter bool
}

// endToEnd is what a user of the system sees. Every workload produces every
// one of them, each for its own unit of work: an inference request on the
// serving workloads, a scenario row (train + emulation replay + field replay)
// on offline_search.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", bound: 0.25, higherBetter: true},
	{name: "p50_ms", unit: "ms", bound: 0.25},
	{name: "alloc_kb_per_req", unit: "KB", bound: 0.05},
}

// perLayer is what a traced run reports, named after the module it times or
// counts from outside. A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{name: "loadgen.late_ms", unit: "ms"},
	{name: "loadgen.p95_ms", unit: "ms"},

	{name: "gateway.admit_us", unit: "us"},
	{name: "gateway.queue_ms", unit: "ms"},
	{name: "gateway.exec_ms", unit: "ms"},
	{name: "gateway.batch_mean", unit: "count"},
	{name: "gateway.batches", unit: "count"},
	{name: "gateway.shed", unit: "count"},
	{name: "gateway.p99_ms", unit: "ms"},
	{name: "gateway.swaps", unit: "count"},
	{name: "gateway.swap_poll_us", unit: "us"},
	{name: "gateway.variant_build_ms", unit: "ms"},

	{name: "serving.offload_ms", unit: "ms"},
	{name: "serving.offload_calls", unit: "count"},
	{name: "serving.offloads_per_batch", unit: "count"},
	{name: "serving.retries", unit: "count"},
	{name: "serving.fallbacks", unit: "count"},
	{name: "serving.conn_writes", unit: "count"},
	{name: "serving.wire_tx_bytes", unit: "B"},
	{name: "serving.wire_rx_bytes", unit: "B"},
	{name: "serving.wire_bytes_per_req", unit: "B"},
	{name: "serving.encode_ns", unit: "ns"},
	{name: "serving.decode_ns", unit: "ns"},
	{name: "serving.frame_roundtrip_us", unit: "us"},
	{name: "faultnet.injected_ms", unit: "ms"},

	{name: "nn.edge_prefix_ms", unit: "ms"},
	{name: "nn.cloud_suffix_ms", unit: "ms"},
	{name: "nn.forward_single_ms", unit: "ms"},
	{name: "nn.forward_batch8_ms", unit: "ms"},
	{name: "nn.maccs", unit: "count"},
	{name: "nn.ns_per_macc", unit: "ns"},
	{name: "nn.allocs_per_forward", unit: "count"},
	{name: "nn.alloc_kb_per_forward", unit: "KB"},
	{name: "tensor.matmul_ns_per_macc", unit: "ns"},
	{name: "tensor.conv2d_ns_per_macc", unit: "ns"},
	{name: "tensor.im2col_us", unit: "us"},
	{name: "tensor.maxpool_us", unit: "us"},

	{name: "parallel.workers", unit: "count"},
	{name: "parallel.for_calls", unit: "count"},
	{name: "parallel.arena_hit_ratio", unit: "ratio"},

	{name: "integrity.manifest_ms", unit: "ms"},
	{name: "integrity.verify_ms", unit: "ms"},
	{name: "network.classify_ns", unit: "ns"},
	{name: "network.estimate_ns", unit: "ns"},
	{name: "core.compose_us", unit: "us"},
	{name: "core.rewalk_us", unit: "us"},

	{name: "report.search_s", unit: "s"},
	{name: "report.tree_reward_mean", unit: "reward"},
	{name: "report.branch_reward_mean", unit: "reward"},
	{name: "report.surgery_reward_mean", unit: "reward"},
	{name: "emulator.train_s_median", unit: "s"},
	{name: "emulator.train_s_max", unit: "s"},
	{name: "emulator.replay_emu_ms", unit: "ms"},
	{name: "emulator.replay_field_ms", unit: "ms"},
	{name: "core.problem_evaluate_us", unit: "us"},
	{name: "core.memo_hit_ratio", unit: "ratio"},
	{name: "rl.policy_step_us", unit: "us"},
	{name: "compress.apply_plan_us", unit: "us"},
	{name: "latency.end_to_end_ns", unit: "ns"},
	{name: "accuracy.evaluate_ns", unit: "ns"},
	{name: "surgery.partition_us", unit: "us"},

	{name: "telemetry.snapshot_ms", unit: "ms"},
	{name: "telemetry.observe_ns", unit: "ns"},
	{name: "telemetry.trace_overhead_ratio", unit: "ratio"},
	{name: "trace.unaccounted_ms", unit: "ms"},
}

// outcome is one run of one workload.
type outcome struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	// info is what the run records besides metrics: environment, seed, rates,
	// sample counts, and on a traced run the stage table.
	info []string
}

func newOutcome(workload string) *outcome {
	return &outcome{workload: workload, metrics: make(map[string]float64)}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}

// timed sets a metric to the median time one operation of fn takes, counted
// in units of per; see timeMedian.
func (o *outcome) timed(name string, per time.Duration, reps int, fn func() (ops int, err error)) error {
	d, err := timeMedian(reps, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	o.set(name, float64(d)/float64(per))
	return nil
}

// setParallel reports what the compute runtime did between two snapshots of
// its process-wide counters.
func (o *outcome) setParallel(before, after parallel.RuntimeStats) {
	o.set("parallel.workers", float64(after.PoolWorkers))
	o.set("parallel.for_calls", float64(after.ForCalls-before.ForCalls))
	hits, misses := float64(after.ArenaHits-before.ArenaHits), float64(after.ArenaMisses-before.ArenaMisses)
	o.set("parallel.arena_hit_ratio", ratio(hits, hits+misses))
}

// finish holds the run to the declared list: nothing undeclared, every
// end-to-end metric measured and positive, and a per-layer metric the
// workload does not exercise filled in as 0.
func (o *outcome) finish(defs []metricDef, zeroFill bool) error {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
		v, ok := o.metrics[d.name]
		switch {
		case !ok && zeroFill:
			o.metrics[d.name] = 0
		case !ok:
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		case !zeroFill && !(v > 0):
			return fmt.Errorf("%s: metric %s reads %v; an end-to-end metric is never 0", o.workload, d.name, v)
		}
	}
	extra := make([]string, 0)
	for name := range o.metrics {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s: undeclared metrics %v", o.workload, extra)
	}
	return nil
}

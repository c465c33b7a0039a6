// Command benchmark is the repo's one yardstick: four workloads over the
// whole path, five end-to-end metrics each, and on a traced run a per-layer
// table taken from outside every layer. See README.md in this directory.
//
//	bash benchmark/run.sh --workload offload_rtt --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh                 # every workload, tracing off
//	bash benchmark/run.sh --trace 1       # every workload, traced
//	bash benchmark/run.sh --selfcheck     # the full set twice, compared to the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cadmc/internal/parallel"
)

// runLimit is the contract's cap on one run; a request that never completes
// ends the process here, with a non-zero code and no result.
const runLimit = 170 * time.Second

// workloads lists every workload in the order a full set runs them.
func workloads() []string {
	names := make([]string, 0, len(servingSpecs)+1)
	for _, s := range servingSpecs {
		names = append(names, s.name)
	}
	return append(names, searchWorkload)
}

// run measures one workload, traced or not, and holds what it measured to
// the declared metric list.
func run(workload string, o options) (*outcome, error) {
	out, err := measure(workload, o)
	if err != nil {
		return nil, err
	}
	return out, out.finish(defsFor(o.trace), o.trace)
}

func measure(workload string, o options) (*outcome, error) {
	if workload == searchWorkload {
		if o.trace {
			return traceSearch(o)
		}
		return runSearch(o)
	}
	for _, s := range servingSpecs {
		if s.name == workload {
			if o.trace {
				return traceServing(s, o)
			}
			return runServing(s, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloads(), ", "))
}

// result is the one JSON object the contract wants as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fullReport is what -out writes: every workload's result with what the run
// recorded about itself. The benchmark only measures, so it claims nothing.
type fullReport struct {
	Env       parallel.EnvInfo   `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Claim     *string            `json:"claim"`
	Workloads map[string]runInfo `json:"workloads"`
}

type runInfo struct {
	result
	Info []string `json:"info"`
}

// emit prints one workload's outcome: a line per recorded fact, a line per
// metric in declared order, then the JSON object.
func emit(w io.Writer, out *outcome, defs []metricDef) (result, error) {
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(w, "workload %s attempted %d failed %d\n", out.workload, out.attempted, out.failed)
	for _, line := range out.info {
		fmt.Fprintf(w, "info %s\n", line)
	}
	for _, d := range defs {
		v := out.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %s %s %v\n", d.name, d.unit, v)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return res, err
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runSet runs the named workloads one after another and prints each.
func runSet(w io.Writer, names []string, o options) (map[string]runInfo, error) {
	set := make(map[string]runInfo, len(names))
	for _, name := range names {
		out, err := run(name, o)
		if err != nil {
			return nil, err
		}
		res, err := emit(w, out, defsFor(o.trace))
		if err != nil {
			return nil, err
		}
		set[name] = runInfo{result: res, Info: out.info}
	}
	return set, nil
}

// selfcheck runs the full untraced set twice and fails when a metric of the
// second run is worse than the first by more than its bound.
func selfcheck(w io.Writer, o options) error {
	o.trace = false
	first, err := runSet(w, workloads(), o)
	if err != nil {
		return err
	}
	second, err := runSet(w, workloads(), o)
	if err != nil {
		return err
	}
	var over []string
	for _, name := range workloads() {
		for _, d := range endToEnd {
			a, b := first[name].Metrics[d.name].Value, second[name].Metrics[d.name].Value
			worse := (b - a) / a
			if d.higherBetter {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "OVER"
				over = append(over, name+"/"+d.name)
			}
			fmt.Fprintf(w, "selfcheck %-14s %-17s %12.4f %12.4f worse by %+7.2f%% bound %5.1f%% %s\n",
				name, d.name, a, b, 100*worse, 100*d.bound, verdict)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("selfcheck: two runs of one commit differ by more than the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

func main() {
	var (
		o        options
		workload = flag.String("workload", "", "workload to run (default: all of them, in turn)")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		check    = flag.Bool("selfcheck", false, "run the full set twice and compare the two to the bounds")
		outFile  = flag.String("out", "", "also write the full report as JSON to this file")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed for inputs, arrival schedule and variant weights")
	flag.Float64Var(&o.seconds, "seconds", 16, "how long the serving workloads measure")
	flag.StringVar(&o.outDir, "outdir", "benchmark/out", "directory for trace files")
	flag.Parse()
	o.trace = *trace != 0

	if err := mainErr(o, *workload, *check, *outFile); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(o options, workload string, check bool, outFile string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if o.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	env := parallel.Env()
	if env.GOMAXPROCS < 2 {
		// Two gateway workers, a submitter and a collector on one processor
		// measure the scheduler, and every parallel speed-up reads as noise.
		return fmt.Errorf("GOMAXPROCS is %d; the benchmark reports nothing below 2", env.GOMAXPROCS)
	}
	fmt.Printf("info env %s %s/%s GOMAXPROCS=%d NumCPU=%d\n", env.GoVersion, env.GOOS, env.GOARCH, env.GOMAXPROCS, env.NumCPU)
	fmt.Printf("info seed %d seconds %g trace %t\n", o.seed, o.seconds, o.trace)

	if check {
		return selfcheck(os.Stdout, o)
	}
	names := workloads()
	if workload != "" {
		names = []string{workload}
		watchdog := time.AfterFunc(runLimit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %s\n", workload, runLimit)
			os.Exit(3)
		})
		defer watchdog.Stop()
	}
	set, err := runSet(os.Stdout, names, o)
	if err != nil || outFile == "" {
		return err
	}
	data, err := json.MarshalIndent(fullReport{Env: env, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Workloads: set}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outFile, append(data, '\n'), 0o644)
}

// Command emulate trains one (or all) of the paper's evaluation scenarios
// and replays it against the three deployment policies in emulation or field
// mode, printing Table IV / Table V style rows. Live mode instead ships real
// offload frames over a loopback socket wrapped in scenario-derived chaos and
// reports how the resilient offload channel degraded and recovered.
//
// Usage:
//
//	emulate -mode emulation                       # all 14 scenarios
//	emulate -mode field -model AlexNet -scenario "WiFi (weak) indoor"
//	emulate -mode live -scenario "WiFi (weak) indoor" -inferences 60
//	emulate -mode gateway -sessions 64            # multi-session gateway replay
//	emulate -mode integrity -sessions 16          # corruption + stall self-healing replay
//	emulate -mode trace -out trace.txt            # deterministic traced replay: waterfalls + metrics
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"cadmc/internal/emulator"
	"cadmc/internal/faultnet"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// modes lists every -mode value; the help text and the unknown-mode error are
// both written from it.
var modes = []string{"emulation", "field", "live", "gateway", "integrity", "trace"}

func main() {
	mode := flag.String("mode", "emulation", "replay mode: "+strings.Join(modes, ", "))
	model := flag.String("model", "", "restrict to one base model (VGG11 or AlexNet)")
	device := flag.String("device", "", "restrict to one device (Phone or TX2)")
	scenario := flag.String("scenario", "", "restrict to one network scenario")
	quick := flag.Bool("quick", false, "use reduced training budgets")
	seed := flag.Int64("seed", 1, "random seed")
	inferences := flag.Int("inferences", 60, "live mode: number of inferences to replay")
	sessions := flag.Int("sessions", 64, "gateway and integrity modes: number of concurrent sessions")
	out := flag.String("out", "", "trace mode: write the report here instead of stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if err := dispatch(*mode, *model, *device, *scenario, *quick, *seed,
		*inferences, *sessions, *out, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "emulate:", err)
		os.Exit(1)
	}
}

func dispatch(mode, model, device, scenario string, quick bool, seed int64,
	inferences, sessions int, out, cpuProfile, memProfile string) (err error) {
	prof, err := telemetry.StartProfile(cpuProfile, memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := prof.Stop(); stopErr != nil && err == nil {
			err = stopErr
		}
	}()
	if (mode == "gateway" || mode == "integrity") && sessions <= 0 {
		return fmt.Errorf("%s mode needs a positive session count", mode)
	}
	switch mode {
	case "live":
		return runLive(scenario, seed, inferences)
	case "gateway":
		return runGateway(seed, sessions)
	case "integrity":
		return runIntegrity(seed, sessions)
	case "trace":
		return runTrace(seed, out)
	default:
		return run(mode, model, device, scenario, quick, seed)
	}
}

// runTrace performs the deterministic traced replay and renders the
// per-request waterfalls followed by the metrics exposition. With -out the
// report goes to a file; any write, flush or close failure — including on
// early-error paths — is reported, never dropped.
func runTrace(seed int64, outPath string) (err error) {
	res, err := emulator.RunTrace(seed)
	if err != nil {
		return err
	}
	var w *bufio.Writer
	if outPath == "" {
		w = bufio.NewWriter(os.Stdout)
		defer func() {
			if flushErr := w.Flush(); flushErr != nil && err == nil {
				err = flushErr
			}
		}()
	} else {
		f, createErr := os.Create(outPath)
		if createErr != nil {
			return createErr
		}
		w = bufio.NewWriter(f)
		defer func() {
			// Flush before close, and keep the first failure: a trace report
			// that silently lost its tail is worse than an error.
			flushErr := w.Flush()
			closeErr := f.Close()
			if err == nil && flushErr != nil {
				err = flushErr
			}
			if err == nil && closeErr != nil {
				err = closeErr
			}
		}()
	}
	fmt.Fprintf(w, "traced replay: seed %d, %d requests over %d phases at %v Mbps, clock step %v\n",
		seed, len(res.Traces), len(emulator.TracePhaseMbps), emulator.TracePhaseMbps, emulator.TraceStep)
	fmt.Fprintf(w, "accounting: %d admitted = %d completed + %d shed, %d hot-swaps\n\n",
		res.Report.Admitted, res.Report.Completed, res.Report.Shed, res.Report.Swaps)
	if _, err := w.WriteString(res.Waterfalls); err != nil {
		return err
	}
	if _, err := w.WriteString("\n"); err != nil {
		return err
	}
	_, werr := w.WriteString(res.Exposition)
	return werr
}

// runLive replays a fault-injected offload session for one scenario and
// prints the per-inference route timeline plus the channel counters.
func runLive(scenarioName string, seed int64, inferences int) error {
	if scenarioName == "" {
		scenarioName = "WiFi (weak) indoor"
	}
	if inferences <= 0 {
		return fmt.Errorf("live mode needs a positive inference count")
	}
	sc, err := network.ByName(scenarioName)
	if err != nil {
		return err
	}
	spec := faultnet.FromScenario(sc, seed, float64(inferences)*emulator.LiveStepMS)

	rng := rand.New(rand.NewSource(seed))
	m := &nn.Model{
		Name:    "live-cnn",
		Input:   nn.Shape{C: 3, H: 16, W: 16},
		Classes: 10,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(16*4*4, 32),
			nn.NewReLU(),
			nn.NewFC(32, 10),
		},
	}
	net, err := nn.NewNet(m, rng)
	if err != nil {
		return err
	}
	inputs := make([]*tensor.Tensor, 8)
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, 3, 16, 16)
	}
	res, err := emulator.RunLive(net, inputs, emulator.LiveOptions{
		Inferences: inferences,
		Cut:        2,
		Spec:       spec,
		Resilience: serving.DefaultResilientOptions(),
	})
	if err != nil {
		return err
	}

	fmt.Printf("live replay: %s, %d inferences at %dms steps, %d outage windows\n",
		scenarioName, inferences, emulator.LiveStepMS, len(spec.Outages))
	for _, w := range spec.Outages {
		fmt.Printf("  outage %.0f..%.0f ms\n", w.StartMS, w.EndMS)
	}
	timeline := make([]byte, len(res.Routes))
	for i, r := range res.Routes {
		switch r {
		case serving.RouteOffloaded:
			timeline[i] = 'O'
		case serving.RouteFallback:
			timeline[i] = 'e'
		default:
			timeline[i] = '.'
		}
	}
	fmt.Printf("routes (O=offloaded, e=edge fallback): %s\n", timeline)
	fmt.Printf("executor: %s\n", res.Stats)
	fmt.Printf("channel: %d retries, %d redials, %d breaker opens, final circuit %s\n",
		res.Channel.Retries, res.Channel.Redials, res.Channel.BreakerOpens, res.FinalBreaker)
	return nil
}

// runGateway replays the multi-session gateway workload: many sessions,
// adaptive micro-batching, and hot-swaps between model-tree variants driven
// by a scripted bandwidth schedule.
func runGateway(seed int64, sessions int) error {
	res, err := emulator.RunGateway(emulator.GatewayOptions{
		Sessions:      sessions,
		Seed:          seed,
		StraddleSwaps: true,
	})
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Printf("gateway replay: %d sessions, %d phases at %v Mbps, %d hot-swaps\n",
		res.Options.Sessions, len(emulator.GatewayPhaseMbps), emulator.GatewayPhaseMbps, res.Swaps)
	fmt.Printf("accounting: %d admitted = %d completed + %d shed (%d errored)\n",
		rep.Admitted, rep.Completed, rep.Shed, rep.Errored)
	fmt.Printf("batching: %d batches, mean size %.2f\n", rep.Batches, rep.MeanBatch)
	fmt.Printf("routes: %s\n", rep.Routes)
	fmt.Printf("latency ms: p50 %.2f | p90 %.2f | p99 %.2f | max %.2f (queue wait mean %.2f)\n",
		rep.P50MS, rep.P90MS, rep.P99MS, rep.MaxMS, rep.MeanQueueMS)
	sigs := make([]string, 0, len(res.SigCounts))
	for sig := range res.SigCounts {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		fmt.Printf("variant %-12s served %d requests\n", sig, res.SigCounts[sig])
	}
	return nil
}

// runIntegrity replays the self-healing scenario: a wedged worker restarted
// by the supervisor, seeded weight corruption caught by the pre-swap
// manifest check, and the poisoned variant quarantined while the gateway
// keeps serving last-known-good.
func runIntegrity(seed int64, sessions int) error {
	res, err := emulator.RunIntegrity(emulator.IntegrityOptions{
		Sessions: sessions,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	rep := res.Report
	fmt.Printf("integrity replay: %d sessions, %d requests, stall timeout %v\n",
		res.Options.Sessions, len(res.Records), emulator.IntegrityStallTimeout)
	fmt.Printf("injected fault: %s\n", res.Corruption)
	fmt.Printf("quarantined: %v (desired class %d, serving class %d)\n",
		res.Quarantined, res.DesiredClass, res.ServedClass)
	fmt.Printf("self-healing: %d quarantines, %d rollbacks, %d worker restarts, %d requests re-queued\n",
		rep.Quarantines, rep.Rollbacks, rep.Restarts, rep.Requeued)
	fmt.Printf("accounting: %d admitted = %d completed + %d shed (%d errored, %d budget-expired)\n",
		rep.Admitted, rep.Completed, rep.Shed, rep.Errored, rep.BudgetExpired)
	fmt.Printf("latency ms: p50 %.2f | p99 %.2f | %d hot-swaps survived\n", rep.P50MS, rep.P99MS, res.Swaps)
	return nil
}

func run(modeName, model, device, scenario string, quick bool, seed int64) error {
	var mode emulator.Mode
	switch modeName {
	case "emulation":
		mode = emulator.ModeEmulation
	case "field":
		mode = emulator.ModeField
	default:
		return fmt.Errorf("unknown mode %q (want one of %s)", modeName, strings.Join(modes, ", "))
	}
	opts := emulator.DefaultTrainOptions()
	if quick {
		opts.TreeEpisodes = 40
		opts.BranchEpisodes = 50
		opts.TraceMS = 120_000
	}
	opts.Seed = seed

	specs := emulator.PaperScenarios()
	selected := make([]emulator.ScenarioSpec, 0, len(specs))
	for _, s := range specs {
		if model != "" && s.ModelName != model {
			continue
		}
		if device != "" && s.DeviceName != device {
			continue
		}
		if scenario != "" && s.EnvName != scenario {
			continue
		}
		selected = append(selected, s)
	}
	if len(selected) == 0 {
		return fmt.Errorf("no scenario matches model=%q device=%q scenario=%q", model, device, scenario)
	}
	fmt.Printf("%-36s | %-26s | %-26s | %-23s\n",
		"Scenario ("+modeName+")", "reward S/B/T", "latency ms S/B/T", "accuracy % S/B/T")
	for _, spec := range selected {
		ts, err := emulator.Train(spec, opts)
		if err != nil {
			return fmt.Errorf("train %s: %w", spec, err)
		}
		rs, err := ts.Run(emulator.DefaultConfig(mode))
		if err != nil {
			return fmt.Errorf("run %s: %w", spec, err)
		}
		fmt.Printf("%-36s | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | %7.2f %7.2f %7.2f\n",
			spec,
			rs[0].MeanReward, rs[1].MeanReward, rs[2].MeanReward,
			rs[0].MeanLatencyMS, rs[1].MeanLatencyMS, rs[2].MeanLatencyMS,
			rs[0].MeanAccuracy, rs[1].MeanAccuracy, rs[2].MeanAccuracy)
	}
	return nil
}

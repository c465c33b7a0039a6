// Adaptive-video: the paper's motivating workload — a continuous-vision
// application classifying a stream of frames on a phone whose 4G link
// fluctuates while the user moves. Each frame re-composes the DNN from the
// model tree, so the deployment adapts mid-stream: offloading when the
// network spikes, running a compressed model on the device when it fades.
//
// The example prints a per-frame timeline showing which branch the runtime
// took and contrasts the tree against dynamic DNN surgery.
//
// Run with:
//
//	go run ./examples/adaptive-video
package main

import (
	"fmt"
	"os"

	"cadmc/internal/accuracy"
	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/latency"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptive-video:", err)
		os.Exit(1)
	}
}

func run() error {
	spec := emulator.ScenarioSpec{
		ModelName:  "AlexNet",
		DeviceName: "Phone",
		EnvName:    "4G outdoor quick",
		TraceSeed:  42,
	}
	opts := emulator.DefaultTrainOptions()
	ts, err := emulator.Train(spec, opts)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s; bandwidth classes %.2f / %.2f Mbps\n\n", spec, ts.Classes[0], ts.Classes[1])

	// Walk 12 consecutive frames along the trace, printing the composition
	// the tree runtime picks for each.
	est := ts.Problem.Est
	oracle := accuracy.New()
	t := 0.0
	fmt.Println("frame  t(ms)   bandwidth  decision                              latency   accuracy")
	for frame := 0; frame < 12; frame++ {
		rt, err := core.NewRuntime(ts.Tree)
		if err != nil {
			return err
		}
		in := ts.Problem.Base.Input
		frameStart := t
		for !rt.Done() {
			blockMS, out, err := blockLatency(ts.Problem.Base.Name, in, rt.Current().EdgeLayers, est.Edge)
			if err != nil {
				return err
			}
			t, in = t+blockMS, out
			if _, err := rt.Advance(ts.Trace.At(t)); err != nil {
				return err
			}
		}
		// Final (terminal) block.
		node := rt.Current()
		blockMS, _, err := blockLatency(ts.Problem.Base.Name, in, node.EdgeLayers, est.Edge)
		if err != nil {
			return err
		}
		t += blockMS
		cand, err := rt.Candidate()
		if err != nil {
			return err
		}
		decision := "edge only (compressed)"
		if node.Partitioned() {
			costs, err := cand.Model.Costs()
			if err != nil {
				return err
			}
			bytes := latency.CutBytes(cand.Model, costs, cand.Cut)
			transfer := est.Transfer.MS(bytes, ts.Trace.At(t))
			cloudMS, err := latency.RangeMS(cand.Model, costs, cand.Cut+1, len(cand.Model.Layers), est.Cloud)
			if err != nil {
				return err
			}
			t += transfer + cloudMS
			decision = fmt.Sprintf("offload after layer %d (%d KB)", cand.Cut, bytes/1024)
		}
		acc, err := oracle.Evaluate(cand.Model, true)
		if err != nil {
			return err
		}
		frameMS := t - frameStart
		fmt.Printf("%5d %7.0f %8.2fMbps  %-36s %7.2fms   %.2f%%\n",
			frame, frameStart, ts.Trace.At(frameStart), decision, frameMS, acc)
		t += 30 // camera inter-frame gap
	}

	// Aggregate comparison against surgery over a longer replay.
	fmt.Println("\naggregate over 120 frames (field mode):")
	rows, err := ts.Run(emulator.DefaultConfig(emulator.ModeField))
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-8s reward %6.2f | latency %7.2f ms (worst %7.2f) | accuracy %5.2f%%\n",
			r.Policy, r.MeanReward, r.MeanLatencyMS, r.WorstLatencyMS, r.MeanAccuracy)
	}
	fmt.Printf("\ntree vs surgery latency: %.1f%% reduction\n",
		100*(1-rows[2].MeanLatencyMS/rows[0].MeanLatencyMS))

	// Show what surgery would have done at the two class bandwidths.
	for _, w := range ts.Classes {
		sres, err := surgery.Partition(ts.Problem.Base, est, w)
		if err != nil {
			return err
		}
		fmt.Printf("surgery at %.2f Mbps: cut after layer %d, %.2f ms\n",
			w, sres.Cut, sres.Latency.TotalMS())
	}
	return nil
}

// blockLatency prices one block's edge layers on dev as a model of their own
// fed an activation of shape in, and returns the shape they produce.
func blockLatency(name string, in nn.Shape, layers []nn.Layer, dev latency.Device) (float64, nn.Shape, error) {
	blk := &nn.Model{Name: name, Input: in, Layers: layers}
	costs, err := blk.Costs()
	if err != nil {
		return 0, nn.Shape{}, err
	}
	ms, err := latency.RangeMS(blk, costs, 0, len(costs), dev)
	if len(costs) > 0 {
		in = costs[len(costs)-1].Out
	}
	return ms, in, err
}

// Edgecloud-serving: partitioned DNN inference over a real network
// connection. A small CNN is actually trained on the synthetic dataset, its
// cloud half is served by a TCP server on loopback, and the edge executor
// runs the prefix locally, ships the intermediate activation, and receives
// the logits — while the cut point adapts to a replayed bandwidth trace
// using the same latency model the decision engine optimises against.
//
// This is the paper's Fig. 2 "Sending Features" path made executable: the
// split results are bit-identical to local inference, and the adaptive cut
// changes as the emulated network fades and recovers.
//
// The offload channel itself is the hardened one: a ResilientClient with
// retry, redial and a circuit breaker rides over a fault-injected connection
// that suffers a scheduled outage mid-stream, and the executor degrades to
// edge-only inference instead of dropping frames.
//
// Run with:
//
//	go run ./examples/edgecloud-serving
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"cadmc/internal/dataset"
	"cadmc/internal/emulator"
	"cadmc/internal/faultnet"
	"cadmc/internal/latency"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edgecloud-serving:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Really train a small CNN on the synthetic 10-class dataset.
	cfg := dataset.DefaultConfig()
	set, err := dataset.Generate(cfg, 300, 100)
	if err != nil {
		return err
	}
	model := &nn.Model{
		Name:    "edgecnn",
		Input:   nn.Shape{C: cfg.Channels, H: cfg.Size, W: cfg.Size},
		Classes: cfg.Classes,
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
			nn.NewFC(32, cfg.Classes),
		},
	}
	rng := rand.New(rand.NewSource(1))
	net1, err := nn.NewNet(model, rng)
	if err != nil {
		return err
	}
	fmt.Println("training a real CNN on the synthetic dataset...")
	if err := train(net1, set.Train, rng); err != nil {
		return err
	}
	acc := accuracy(net1, set.Test)
	fmt.Printf("local test accuracy: %.1f%%\n\n", 100*acc)

	// 2. Serve the model on loopback.
	srv := serving.NewServer()
	if err := srv.Register("edgecnn", net1); err != nil {
		return err
	}
	addr, stopCloud, err := srv.ServeLoopback()
	if err != nil {
		return err
	}
	fmt.Printf("cloud server listening on %s\n", addr)

	// The edge side dials through a chaos wrapper: a scheduled outage window
	// takes the link down across frames 9 and 10 of the stream below — frames
	// where the bandwidth has recovered and the adaptive policy wants to
	// offload, so the failure actually bites. The breaker cooldown and backoff
	// run on the same virtual clock as the outage schedule, and that clock
	// advances with the frame timeline, so the fault schedule and the
	// recovery point are deterministic run to run.
	spec := faultnet.Spec{
		Seed:    1,
		Outages: []faultnet.Window{{StartMS: 8_000, EndMS: 9_500}},
	}
	live, err := emulator.NewLiveEdge(addr, "edgecnn", net1, spec, serving.DefaultResilientOptions())
	if err != nil {
		return err
	}

	// 3. Verify the split results match local inference exactly at every cut.
	cuts, err := model.CutPoints()
	if err != nil {
		return err
	}
	allCuts := append([]int{-1}, cuts...)
	x := set.Test[0].Image
	local, err := net1.Forward(x)
	if err != nil {
		return err
	}
	for _, cut := range allCuts {
		remote, _, err := live.Exec.InferRoute(x, cut)
		if err != nil {
			return err
		}
		for i := range remote {
			if math.Abs(remote[i]-local.Data[i]) > 0 {
				return fmt.Errorf("cut %d: split inference diverged from local", cut)
			}
		}
	}
	fmt.Printf("split inference verified bit-identical to local at %d cut points\n\n", len(allCuts))

	// 4. Adaptive cut selection against a replayed trace: before each frame,
	//    pick the cut the latency model says is fastest at the current
	//    bandwidth, then execute it for real over the socket.
	sc, err := network.ByName("WiFi (weak) indoor")
	if err != nil {
		return err
	}
	trace, err := network.Generate(sc, 3, 60_000)
	if err != nil {
		return err
	}
	tm := latency.DefaultTransferModel()
	tm.RTTMS = sc.RTTMS
	// A wearable-class device: an order of magnitude slower than the phone,
	// the deployment target the paper's introduction motivates.
	wearable := latency.Device{
		Name:               "wearable",
		ConvCoeffNS:        map[int]float64{3: 14},
		DefaultConvCoeffNS: 15,
		FCCoeffNS:          12,
		LayerOverheadNS:    8e6,
		SmallMapPixels:     25,
	}
	est, err := latency.NewEstimator(wearable, latency.CloudServer(), tm)
	if err != nil {
		return err
	}
	fmt.Println("frame  bandwidth   chosen cut   est.latency   route         predicted  label")
	correct := 0
	const frames = 12
	for f := 0; f < frames; f++ {
		tMS := float64(f) * 900
		live.Clock.Set(time.Duration(tMS * float64(time.Millisecond)))
		w := trace.At(tMS)
		cut, estMS, err := bestCut(model, est, allCuts, w)
		if err != nil {
			return err
		}
		sample := set.Test[f%len(set.Test)]
		logits, route, err := live.Exec.InferRoute(sample.Image, cut)
		if err != nil {
			return err
		}
		pred := argmax(logits)
		if pred == sample.Label {
			correct++
		}
		where := fmt.Sprintf("layer %d", cut)
		if cut == -1 {
			where = "all cloud"
		} else if cut == len(model.Layers)-1 {
			where = "all edge"
		}
		fmt.Printf("%5d %8.2fMbps  %-11s %9.2fms   %-13s %9d  %5d\n",
			f, w, where, estMS, route, pred, sample.Label)
	}
	fmt.Printf("\nstream accuracy over %d frames: %d/%d\n", frames, correct, frames)
	st := live.Exec.Stats()
	ch := live.Client.Stats()
	fmt.Printf("resilience: %d offloaded, %d edge fallbacks during the outage; channel saw %d retries, %d redials, %d breaker opens (circuit now %s)\n",
		st.Offloaded, st.Fallbacks, ch.Retries, ch.Redials, ch.BreakerOpens, live.Client.BreakerState())

	if err := live.Client.Close(); err != nil {
		return err
	}
	return stopCloud()
}

// argmax returns the index of the largest logit.
func argmax(logits []float64) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// bestCut returns the latency-model-optimal cut among the candidates.
func bestCut(m *nn.Model, est *latency.Estimator, cuts []int, w float64) (int, float64, error) {
	bestC, bestMS := len(m.Layers)-1, math.Inf(1)
	candidates := append(append([]int(nil), cuts...), len(m.Layers)-1)
	for _, c := range candidates {
		b, err := est.EndToEnd(m, c, w)
		if err != nil {
			return 0, 0, err
		}
		if b.TotalMS() < bestMS {
			bestC, bestMS = c, b.TotalMS()
		}
	}
	return bestC, bestMS, nil
}

func train(net1 *nn.Net, samples []dataset.Sample, rng *rand.Rand) error {
	g := net1.NewGrads()
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	const batch = 16
	for epoch := 0; epoch < 8; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for b := 0; b < len(idx); b += batch {
			end := b + batch
			if end > len(idx) {
				end = len(idx)
			}
			for _, i := range idx[b:end] {
				if _, err := net1.TrainSample(samples[i].Image, samples[i].Label, nil, g); err != nil {
					return err
				}
			}
			net1.Step(g, 0.05, end-b)
		}
	}
	return nil
}

func accuracy(net1 *nn.Net, samples []dataset.Sample) float64 {
	correct := 0
	for _, s := range samples {
		pred, err := net1.Predict(s.Image)
		if err == nil && pred == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

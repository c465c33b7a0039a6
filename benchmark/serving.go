package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cadmc/internal/gateway"
	"cadmc/internal/parallel"
	"cadmc/internal/serving"
)

// options is what the command line chose for one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// quick shrinks the work outside the repetitions (one set-up build, two
	// search rows with tiny budgets) so the smoke test can run every workload
	// in seconds. Measured runs never set it.
	quick  bool
	outDir string
}

func (o options) builds() int {
	if o.quick {
		return 1
	}
	return setupBuilds
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// totals adds every phase, warm-ups included, into the attempted and failed
// counts: a request that was shed or errored is a failure whichever
// repetition sent it.
func (o *outcome) count(phases ...phase) {
	for _, p := range phases {
		o.attempted += p.sent
		o.failed += p.failed
	}
}

// runServing measures one serving workload with tracing off: setupBuilds
// fresh rig builds, one discarded warm-up repetition of each kind, then
// `repetitions` open-loop repetitions alternating with as many closed-loop
// ones on the last rig built.
func runServing(spec servingSpec, o options) (*outcome, error) {
	out := newOutcome(spec.name)
	r, setup, err := buildRigs(spec, o, false)
	if err != nil {
		return nil, err
	}
	defer func() { _, _ = r.close() }()

	// The open loop gets the larger share of the run: it feeds two metrics,
	// and its tail needs the samples.
	period := secs(o.seconds / periodsPerRun)
	openFor, closedFor := openPeriods*period, closedPeriods*period
	rng := rand.New(rand.NewSource(o.seed + 2))
	open := func(length time.Duration) (phase, error) {
		return r.drive(poissonSchedule(rng, spec.rateRPS, length), length, period)
	}
	closed := func(length time.Duration) (phase, error) { return r.drive(nil, length, period) }

	var (
		p50s, thr, allocKB, pooled, late []float64
		sample                           []done
		byRoute                          = make(map[serving.Route][]float64)
	)
	for i := -1; i < repetitions; i++ {
		warmUp := i < 0
		lenOpen, lenClosed := openFor, closedFor
		if warmUp {
			lenOpen, lenClosed = openFor/2, closedFor/2
		}
		op, err := open(lenOpen)
		if err != nil {
			return nil, err
		}
		cl, err := closed(lenClosed)
		if err != nil {
			return nil, err
		}
		out.count(op, cl)
		if warmUp {
			continue
		}
		if len(op.done) > 0 {
			lat := op.latencies()
			p50s = append(p50s, median(lat))
			pooled = append(pooled, lat...)
			for _, d := range op.done {
				late = append(late, ms(d.sent-d.due))
				byRoute[d.res.Route] = append(byRoute[d.res.Route], d.latencyMS())
			}
		}
		if len(cl.done) > 0 {
			thr = append(thr, cl.throughput())
			allocKB = append(allocKB, float64(cl.allocBytes)/1024/float64(len(cl.done)))
		}
		if len(sample) < checkedLogits {
			sample = append(sample, op.done[:min(len(op.done), checkedLogits-len(sample))]...)
		}
	}
	if len(pooled) == 0 || len(thr) == 0 {
		return nil, fmt.Errorf("%s: nothing completed (%d open-loop samples, %d closed-loop repetitions)", spec.name, len(pooled), len(thr))
	}
	if err := r.checkLogits(sample); err != nil {
		return nil, err
	}
	swaps, polls := r.gw.Swaps(), r.polls
	rep, err := r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: shutdown: %w", spec.name, err)
	}
	if err := checkReport(spec, rep, swaps, polls); err != nil {
		return nil, err
	}

	q := tailQuantile(len(pooled))
	out.set("setup_s", median(setup))
	out.set("throughput_rps", median(thr))
	out.set("p50_ms", median(p50s))
	out.set("alloc_kb_per_req", median(allocKB))
	out.note("rate_rps %g open loop, Poisson; closed loop window %d", spec.rateRPS, closedWindow)
	out.note("repetitions %d open x %.2fs + %d closed x %.2fs, median of repetitions", repetitions, openFor.Seconds(), repetitions, closedFor.Seconds())
	out.note("open_samples %d; pooled p%.1f %.3f ms with %d samples beyond (per-layer metric loadgen.p95_ms on a traced run)",
		len(pooled), 100*q, quantile(pooled, q), int(float64(len(pooled))*(1-q)))
	out.note("per repetition: p50_ms %.2f; throughput_rps %.1f", p50s, thr)
	out.note("generator_late_ms median %.4f max %.4f", median(late), maxOf(late))
	out.note("routes %s; batches %d mean %.2f; swaps %d", rep.Routes, rep.Batches, rep.MeanBatch, swaps)
	for _, route := range []serving.Route{serving.RouteEdgeOnly, serving.RouteOffloaded} {
		if lat := byRoute[route]; len(lat) > 0 {
			out.note("open loop %s: %d samples, p50 %.3f ms", route, len(lat), median(lat))
		}
	}
	if rep.Routes.Offloaded > 0 {
		out.note("wire_bytes_per_req %.1f (per-layer metric serving.wire_bytes_per_req on a traced run)",
			float64(rep.WireTxBytes+rep.WireRxBytes)/float64(rep.Routes.Offloaded))
	}
	return out, nil
}

// buildRigs builds the rig o.builds() times, tearing each down but the last,
// and returns the last with every build's duration in seconds.
func buildRigs(spec servingSpec, o options, traced bool) (*rig, []float64, error) {
	var (
		r     *rig
		setup []float64
	)
	for i := 0; i < o.builds(); i++ {
		if r != nil {
			if _, err := r.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: shutdown: %w", spec.name, err)
			}
		}
		t0 := time.Now()
		var err error
		r, err = buildRig(spec, o.seed, traced)
		if err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return r, setup, nil
}

// checkLogits recomputes each sampled request out of band, on the variant
// the gateway says served it, and wants the same bits.
func (r *rig) checkLogits(sample []done) error {
	if len(sample) == 0 {
		return fmt.Errorf("%s: no completed request to check", r.spec.name)
	}
	for _, d := range sample {
		v, ok := r.variants[d.res.VariantSig]
		if !ok {
			return fmt.Errorf("%s: request %d was served by variant %q, which the provider never built", r.spec.name, d.res.RequestID, d.res.VariantSig)
		}
		want, err := v.Net.Forward(r.inputs[d.input])
		if err != nil {
			return fmt.Errorf("%s: reference forward: %w", r.spec.name, err)
		}
		if len(want.Data) != len(d.res.Logits) {
			return fmt.Errorf("%s: request %d returned %d logits, reference has %d", r.spec.name, d.res.RequestID, len(d.res.Logits), len(want.Data))
		}
		for i, w := range want.Data {
			if math.Float64bits(w) != math.Float64bits(d.res.Logits[i]) {
				return fmt.Errorf("%s: request %d logit %d is %v, reference %v", r.spec.name, d.res.RequestID, i, d.res.Logits[i], w)
			}
		}
	}
	return nil
}

// checkReport holds the drained gateway to its ledger, to the route mix the
// workload was designed for, and to a clean resilience record: a rig that
// tripped its own quarantine or supervisor measured something else.
func checkReport(spec servingSpec, rep gateway.Report, swaps int64, polls int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", spec.name, fmt.Sprintf(format, args...))
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		return fail("ledger open: admitted %d != completed %d + shed %d", rep.Admitted, rep.Completed, rep.Shed)
	}
	if n := rep.Quarantines + rep.Rollbacks + rep.Restarts + rep.Requeued + rep.BudgetExpired; n != 0 {
		return fail("resilience counters not zero: quarantines %d rollbacks %d restarts %d requeued %d budget-expired %d",
			rep.Quarantines, rep.Rollbacks, rep.Restarts, rep.Requeued, rep.BudgetExpired)
	}
	rt := rep.Routes
	switch {
	case rt.Fallbacks != 0:
		return fail("%d requests fell back to the edge", rt.Fallbacks)
	case spec.swing:
		if rt.EdgeOnly == 0 || rt.Offloaded == 0 || swaps != int64(polls) {
			return fail("wants both routes and a swap at each of %d polls, got %s and %d swaps", polls, rt, swaps)
		}
	case spec.offload:
		if rt.Offloaded != rt.Inferences {
			return fail("wants every request offloaded, got %s", rt)
		}
	default:
		if rt.EdgeOnly != rt.Inferences {
			return fail("wants every request edge-only, got %s", rt)
		}
	}
	return nil
}

// closedPair runs a discarded closed-loop warm-up and a measured closed-loop
// repetition on one rig.
func closedPair(r *rig, out *outcome, warmFor, repFor, period time.Duration) (phase, error) {
	warm, err := r.drive(nil, warmFor, period)
	if err != nil {
		return phase{}, err
	}
	rep, err := r.drive(nil, repFor, period)
	out.count(warm, rep)
	return rep, err
}

// traceServing is the separate traced run: a closed-loop repetition on an
// untraced rig, the same on a rig with the gateway's tracer, a shared
// registry and the benchmark's decorators switched on, one traced open-loop
// repetition for the spans, and a stage replay that calls each layer directly.
func traceServing(spec servingSpec, o options) (*outcome, error) {
	out := newOutcome(spec.name)
	// Three repetitions of 12 periods and their warm-ups fill most of a run.
	period := secs(o.seconds / periodsPerRun)
	repFor, warmFor := 12*period, 4*period
	rng := rand.New(rand.NewSource(o.seed + 2))

	plain, err := buildRig(spec, o.seed, false)
	if err != nil {
		return nil, err
	}
	base, err := closedPair(plain, out, warmFor, repFor, period)
	if _, cerr := plain.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: shutdown: %w", spec.name, cerr)
	}
	if err != nil {
		return nil, err
	}

	before := parallel.Stats()
	r, err := buildRig(spec, o.seed, true)
	if err != nil {
		return nil, err
	}
	defer func() { _, _ = r.close() }()
	cl, err := closedPair(r, out, warmFor, repFor, period)
	if err != nil {
		return nil, err
	}
	op, err := r.drive(poissonSchedule(rng, spec.rateRPS, repFor), repFor, period)
	if err != nil {
		return nil, err
	}
	out.count(op)
	if len(base.done) == 0 || len(cl.done) == 0 || len(op.done) == 0 {
		return nil, fmt.Errorf("%s: a traced repetition completed nothing", spec.name)
	}
	if err := r.checkLogits(op.done[:min(len(op.done), checkedLogits)]); err != nil {
		return nil, err
	}
	swaps := r.gw.Swaps()
	retries := int64(0)
	for _, t := range r.taps {
		retries += t.inner.Stats().Retries
	}
	traces := r.tracer.Traces()
	rep, err := r.close()
	if err != nil {
		return nil, fmt.Errorf("%s: shutdown: %w", spec.name, err)
	}
	if err := checkReport(spec, rep, swaps, r.polls); err != nil {
		return nil, err
	}
	after := parallel.Stats()
	t0 := time.Now()
	snap := r.registry.Snapshot()
	out.set("telemetry.snapshot_ms", ms(time.Since(t0)))
	out.note("registry snapshot holds %d counters, %d gauges, %d histograms", len(snap.Counters), len(snap.Gauges), len(snap.Histograms))

	var late, admit, queue, exec []float64
	for _, d := range op.done {
		late = append(late, ms(d.sent-d.due))
		admit = append(admit, float64(d.admit)/float64(time.Microsecond))
		queue = append(queue, d.res.QueueMS)
		exec = append(exec, d.res.TotalMS-d.res.QueueMS)
	}
	out.set("loadgen.late_ms", median(late))
	lat := op.latencies()
	out.set("loadgen.p95_ms", quantile(lat, tailQuantile(len(lat))))
	out.note("open_samples %d; loadgen.p95_ms taken at quantile %.4f", len(lat), tailQuantile(len(lat)))
	out.set("gateway.admit_us", median(admit))
	out.set("gateway.queue_ms", median(queue))
	out.set("gateway.exec_ms", median(exec))
	out.set("gateway.batch_mean", rep.MeanBatch)
	out.set("gateway.batches", float64(rep.Batches))
	out.set("gateway.shed", float64(rep.Shed))
	out.set("gateway.p99_ms", rep.P99MS)
	out.set("gateway.swaps", float64(swaps))
	out.set("gateway.swap_poll_us", median(r.pollUS))
	out.set("gateway.variant_build_ms", r.buildMS)

	var calls []offloadCall
	for _, t := range r.taps {
		calls = append(calls, t.drain()...)
	}
	offMS := make([]float64, len(calls))
	for i, c := range calls {
		offMS[i] = ms(c.end - c.start)
	}
	writes := r.connWrites.Load()
	// Counted on the closed loop, where the backlog keeps batches full. Every
	// batch of size b holds b results that each say so, so the sum of 1/b
	// over offloaded results counts the batches that offloaded.
	var execClosed []float64
	offloaded, batches := 0.0, 0.0
	for _, d := range cl.done {
		execClosed = append(execClosed, d.res.TotalMS-d.res.QueueMS)
		if d.res.Route == serving.RouteOffloaded {
			offloaded++
			batches += 1 / float64(d.res.BatchSize)
		}
	}
	perBatch := ratio(offloaded, batches)
	out.note("closed loop: exec median %.3f ms; offloads_per_batch %.2f x offload_ms %.3f = %.3f ms",
		median(execClosed), perBatch, median(offMS), perBatch*median(offMS))
	out.set("serving.offload_ms", median(offMS))
	out.set("serving.offload_calls", float64(len(calls)))
	out.set("serving.offloads_per_batch", perBatch)
	out.set("serving.retries", float64(retries))
	out.set("serving.fallbacks", float64(rep.Routes.Fallbacks))
	out.set("serving.conn_writes", float64(writes))
	out.set("serving.wire_tx_bytes", float64(rep.WireTxBytes))
	out.set("serving.wire_rx_bytes", float64(rep.WireRxBytes))
	out.set("serving.wire_bytes_per_req", ratio(float64(rep.WireTxBytes+rep.WireRxBytes), float64(rep.Routes.Offloaded)))
	out.set("serving.encode_ns", rep.MeanEncodeNS)
	out.set("serving.decode_ns", rep.MeanDecodeNS)
	out.set("faultnet.injected_ms", float64(writes)*spec.latencyMS)

	out.setParallel(before, after)
	out.set("telemetry.trace_overhead_ratio", cl.throughput()/base.throughput())
	out.note("closed loop untraced %.1f req/s, traced %.1f req/s", base.throughput(), cl.throughput())

	st, err := replayStages(r, out)
	if err != nil {
		return nil, fmt.Errorf("%s: stage replay: %w", spec.name, err)
	}
	spans, unaccounted, err := requestSpans(r, op.done, traces, calls, st)
	if err != nil {
		return nil, err
	}
	out.set("trace.unaccounted_ms", median(unaccounted))
	if err := out.writeTrace(o, spans); err != nil {
		return nil, err
	}
	return out, nil
}

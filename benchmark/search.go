package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cadmc/internal/compress"
	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/parallel"
	"cadmc/internal/report"
	"cadmc/internal/rl"
	"cadmc/internal/surgery"
)

const searchWorkload = "offline_search"

// treeRewardFloor is the mean Eq. 7 tree reward over the paper's 14 rows at
// the commit that added this benchmark (358.45778801128597), rounded down.
// The search is deterministic, so a run below the floor changed what the
// search finds, not how fast it finds it.
const treeRewardFloor = 358.4577

// searchPlan is what offline_search evaluates: the paper's 14 Table III–V
// rows with the evaluation-harness budgets, or two rows with tiny budgets for
// the smoke test.
func searchPlan(quick bool) ([]emulator.ScenarioSpec, emulator.TrainOptions) {
	specs, opts := emulator.PaperScenarios(), emulator.DefaultTrainOptions()
	if quick {
		specs = []emulator.ScenarioSpec{specs[0], specs[len(specs)-1]}
		opts.TreeEpisodes, opts.BranchEpisodes = 6, 6
	}
	return specs, opts
}

// searchSetup is the offline phase's set-up as a caller pays it: one small
// Evaluate (two rows, eight episodes) that starts the worker pool, fills the
// scratch arena and touches every package the search uses.
func searchSetup(o options) ([]float64, error) {
	specs, opts := searchPlan(true)
	opts.TreeEpisodes, opts.BranchEpisodes = 8, 8
	var setup []float64
	for i := 0; i < o.builds(); i++ {
		t0 := time.Now()
		if _, err := report.Evaluate(specs, opts); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return setup, nil
}

// rewards are the Table III means of one evaluation.
type rewards struct {
	surgery, branch, tree float64
}

func meanRewards(trained []*emulator.TrainedScenario) rewards {
	var r rewards
	for _, ts := range trained {
		r.surgery += ts.SurgeryReward
		r.branch += ts.BranchReward
		r.tree += ts.TreeReward
	}
	n := float64(len(trained))
	return rewards{r.surgery / n, r.branch / n, r.tree / n}
}

// check holds one evaluation to the paper's result shape and, on the full
// plan, to the reward this search reached when the benchmark was defined.
func (r rewards) check(quick bool) error {
	if !(r.surgery <= r.branch && r.branch <= r.tree) {
		return fmt.Errorf("%s: reward shape broken: surgery %.4f, branch %.4f, tree %.4f", searchWorkload, r.surgery, r.branch, r.tree)
	}
	if !quick && r.tree < treeRewardFloor {
		return fmt.Errorf("%s: tree_reward_mean %.6f is below %.4f, what this search found when the benchmark was defined", searchWorkload, r.tree, treeRewardFloor)
	}
	return nil
}

// row is one scenario evaluated by evaluateRows.
type row struct {
	trained                *emulator.TrainedScenario
	start, train, emu, end time.Duration // offsets on the pass's clock
}

// evaluateRows does what report.Evaluate does, through the same public calls
// and the same fan-out, and times every row on the way.
func evaluateRows(specs []emulator.ScenarioSpec, opts emulator.TrainOptions) ([]row, error) {
	rows := make([]row, len(specs))
	errs := make([]error, len(specs))
	t0 := time.Now()
	parallel.For(len(specs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rw := &rows[i]
			rw.start = time.Since(t0)
			rw.trained, errs[i] = emulator.Train(specs[i], opts)
			if errs[i] != nil {
				continue
			}
			rw.train = time.Since(t0)
			if _, errs[i] = rw.trained.Run(emulator.DefaultConfig(emulator.ModeEmulation)); errs[i] != nil {
				continue
			}
			rw.emu = time.Since(t0)
			_, errs[i] = rw.trained.Run(emulator.DefaultConfig(emulator.ModeField))
			rw.end = time.Since(t0)
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: row %s: %w", searchWorkload, specs[i], err)
		}
	}
	return rows, nil
}

// runSearch measures the offline phase with two passes over the same rows:
// one through report.Evaluate, whose wall time and allocations give the
// throughput and memory numbers, and one through evaluateRows, which gives
// the per-row latencies. The search is deterministic, so both must reach the
// same rewards to the bit.
func runSearch(o options) (*outcome, error) {
	out := newOutcome(searchWorkload)
	setup, err := searchSetup(o)
	if err != nil {
		return nil, err
	}
	specs, opts := searchPlan(o.quick)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	ev, err := report.Evaluate(specs, opts)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)

	rows, err := evaluateRows(specs, opts)
	if err != nil {
		return nil, err
	}
	rowMS := make([]float64, len(rows))
	again := make([]*emulator.TrainedScenario, len(rows))
	for i, rw := range rows {
		rowMS[i] = ms(rw.end - rw.start)
		again[i] = rw.trained
	}
	first, second := meanRewards(ev.Trained), meanRewards(again)
	if err := first.check(o.quick); err != nil {
		return nil, err
	}
	if math.Float64bits(first.tree) != math.Float64bits(second.tree) {
		return nil, fmt.Errorf("%s: two passes disagree on tree_reward_mean: %v and %v", searchWorkload, first.tree, second.tree)
	}

	n := float64(len(specs))
	out.attempted = 2 * len(specs)
	out.set("setup_s", median(setup))
	out.set("throughput_rps", n/wall.Seconds())
	out.set("p50_ms", median(rowMS))
	out.set("alloc_kb_per_req", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	out.note("rows %d per pass, 2 passes; one request is one row: train (Alg. 1 + Alg. 3) + emulation replay + field replay", len(specs))
	out.note("search_s %.4f for report.Evaluate over all rows (per-layer metric report.search_s on a traced run)", wall.Seconds())
	out.note("row_samples %d for p50_ms; the slowest row took %.1f ms", len(rowMS), maxOf(rowMS))
	out.note("tree_reward_mean %.10f branch %.10f surgery %.10f, identical in both passes", first.tree, first.branch, first.surgery)
	return out, nil
}

// traceSearch is the traced run of the offline phase: report.Evaluate once
// for its wall time, evaluateRows once for a span per row and stage, and the
// search's building blocks called directly.
func traceSearch(o options) (*outcome, error) {
	out := newOutcome(searchWorkload)
	specs, opts := searchPlan(o.quick)
	before := parallel.Stats()

	t0 := time.Now()
	ev, err := report.Evaluate(specs, opts)
	if err != nil {
		return nil, err
	}
	out.set("report.search_s", time.Since(t0).Seconds())
	rows, err := evaluateRows(specs, opts)
	if err != nil {
		return nil, err
	}
	after := parallel.Stats()
	out.attempted = 2 * len(specs)

	rw := meanRewards(ev.Trained)
	if err := rw.check(o.quick); err != nil {
		return nil, err
	}
	out.set("report.tree_reward_mean", rw.tree)
	out.set("report.branch_reward_mean", rw.branch)
	out.set("report.surgery_reward_mean", rw.surgery)

	var (
		spans                spanList
		trainS, emuMS, fldMS []float64
		hits, misses         int
	)
	for i, r := range rows {
		req := uint64(i + 1)
		root := spans.add(span{Req: req, Name: "row", Detail: specs[i].String(), Start: ms(r.start), End: ms(r.end)})
		spans.add(span{Parent: root.ID, Req: req, Name: "emulator.train", Start: ms(r.start), End: ms(r.train)})
		spans.add(span{Parent: root.ID, Req: req, Name: "emulator.replay_emu", Start: ms(r.train), End: ms(r.emu)})
		spans.add(span{Parent: root.ID, Req: req, Name: "emulator.replay_field", Start: ms(r.emu), End: ms(r.end)})
		trainS = append(trainS, (r.train - r.start).Seconds())
		emuMS = append(emuMS, ms(r.emu-r.train))
		fldMS = append(fldMS, ms(r.end-r.emu))
		h, m, _ := r.trained.Problem.Memo.Stats()
		hits, misses = hits+h, misses+m
	}
	// parallel.For returns when its slowest row does, so the maximum matters
	// as much as the median.
	out.set("emulator.train_s_median", median(trainS))
	out.set("emulator.train_s_max", maxOf(trainS))
	out.set("emulator.replay_emu_ms", median(emuMS))
	out.set("emulator.replay_field_ms", median(fldMS))
	out.set("core.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	out.setParallel(before, after)

	if err := replaySearch(rows[0].trained, o.seed, out); err != nil {
		return nil, fmt.Errorf("%s: stage replay: %w", searchWorkload, err)
	}
	if err := out.writeTrace(o, spans); err != nil {
		return nil, err
	}
	return out, nil
}

// replaySearch calls the search's building blocks directly on one trained
// scenario's problem: one candidate evaluation and the three models behind
// it, one controller update, one compression plan, one surgery min-cut.
func replaySearch(ts *emulator.TrainedScenario, seed int64, out *outcome) error {
	p := ts.Problem
	base, bw := p.Base, ts.Classes[len(ts.Classes)-1]
	cut := p.Blocks[0].End - 1
	const loops = 100

	// A fresh problem with the memo pool off: every Evaluate does the work.
	cold, err := core.NewProblem(base, p.Est, p.Oracle, len(p.Blocks))
	if err != nil {
		return err
	}
	cold.Memo.Disable()
	cand := core.Candidate{Model: base, Cut: cut}
	if err := out.timed("core.problem_evaluate_us", time.Microsecond, 5, times(loops, func(int) error {
		_, err := cold.Evaluate(cand, bw)
		return err
	})); err != nil {
		return err
	}
	if err := out.timed("latency.end_to_end_ns", time.Nanosecond, 5, times(loops, func(int) error {
		_, err := p.Est.EndToEnd(base, cut, bw)
		return err
	})); err != nil {
		return err
	}
	if err := out.timed("accuracy.evaluate_ns", time.Nanosecond, 5, times(loops, func(int) error {
		_, err := p.Oracle.Evaluate(base, true)
		return err
	})); err != nil {
		return err
	}
	if err := out.timed("surgery.partition_us", time.Microsecond, 5, once(func() error {
		_, err := surgery.Partition(base, p.Est, bw)
		return err
	})); err != nil {
		return err
	}

	// The plan tries the first technique that binds at every layer, as a
	// controller early in training would.
	var plan []compress.Action
	for i := range base.Layers {
		for _, t := range p.Techniques {
			if t.ID != compress.None && t.Applicable(base, i) {
				plan = append(plan, compress.Action{Layer: i, Technique: t})
				break
			}
		}
	}
	out.note("compression plan binds %d actions on %s", len(plan), base.Name)
	if err := out.timed("compress.apply_plan_us", time.Microsecond, 5, once(func() error {
		_, _, err := compress.ApplyPlan(base, plan)
		return err
	})); err != nil {
		return err
	}

	// One controller update over a block-sized sequence of layer encodings.
	rlCfg := core.DefaultRLConfig()
	rng := rand.New(rand.NewSource(seed + 4))
	const featureDim, seqLen = 18, 12
	policy, err := rl.NewPartitionPolicy(featureDim, rlCfg.Hidden, rlCfg.LR, rng)
	if err != nil {
		return err
	}
	seq := make([][]float64, seqLen)
	for i := range seq {
		seq[i] = make([]float64, featureDim)
		for j := range seq[i] {
			seq[i][j] = rng.Float64()
		}
	}
	mask := make([]bool, seqLen+2)
	for i := range mask {
		mask[i] = true
	}
	return out.timed("rl.policy_step_us", time.Microsecond, 5, times(loops, func(i int) error {
		if _, err := policy.Logits(seq); err != nil {
			return err
		}
		if err := policy.Accumulate(seq, mask, i%len(mask), 0.5); err != nil {
			return err
		}
		policy.Step()
		return nil
	}))
}

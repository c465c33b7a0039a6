package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cadmc/internal/gateway"
	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// makeInputs draws the request tensors. The program under test sees only
// these; the seed never reaches it any other way than through them and the
// variant weights.
func makeInputs(seed int64, shape nn.Shape, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed + 1))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, shape.C, shape.H, shape.W)
	}
	return xs
}

// poissonSchedule returns the due times, as offsets from the start of a
// repetition, of Poisson arrivals at rate per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// inflight is one admitted request on its way from the submitter to the
// collector.
type inflight struct {
	input int           // index into the input pool
	due   time.Duration // run-clock time the request was due
	sent  time.Duration // run-clock time just before Submit
	admit time.Duration // how long Submit took
	ch    <-chan gateway.Result
}

// done is a request that completed without error.
type done struct {
	inflight
	res gateway.Result
}

// latencyMS runs from the due time, so the time a late generator or a stalled
// gateway kept the request waiting before admission is part of it.
func (d done) latencyMS() float64 { return ms(d.sent-d.due) + d.res.TotalMS }

// phase is one repetition's outcome.
type phase struct {
	sent   int
	failed int // shed at Submit, or completed with an error
	done   []done
	// wall runs from the first Submit to the last completion.
	wall       time.Duration
	allocBytes uint64
}

func (p phase) throughput() float64 { return float64(len(p.done)) / p.wall.Seconds() }

func (p phase) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, d := range p.done {
		out[i] = d.latencyMS()
	}
	return out
}

// drive runs one repetition of the given length against the rig's gateway
// from one submitter (the calling goroutine) and one collector. With a
// schedule the loop is open: request i is sent at its due time whatever
// became of the earlier ones. Without one it is closed: closedWindow requests
// are kept outstanding until the length has passed. On the swing workload a
// third goroutine flips the class at every period boundary on the way.
func (r *rig) drive(sched []time.Duration, length, period time.Duration) (phase, error) {
	open := sched != nil
	var (
		ph       phase
		errored  int
		end      time.Duration
		swingErr error
		wg       sync.WaitGroup
		// pending never blocks the submitter before the gateway's own queue
		// would shed; window holds one token per outstanding closed-loop
		// request.
		pending = make(chan inflight, gwQueueCap)
		window  = make(chan struct{}, closedWindow)
	)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := r.clock.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range pending {
			res := <-f.ch
			if !open {
				<-window
			}
			if res.Err != nil {
				errored++
				continue
			}
			ph.done = append(ph.done, done{f, res})
		}
		end = r.clock.Now()
	}()
	if r.swap != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			swingErr = r.swing(start, length, period)
		}()
	}

	for i := 0; ; i++ {
		var due time.Duration
		if open {
			if i == len(sched) {
				break
			}
			due = start + sched[i]
			if wait := due - r.clock.Now(); wait > 0 {
				time.Sleep(wait)
			}
		} else {
			window <- struct{}{}
			due = r.clock.Now()
			if due-start >= length {
				break
			}
		}
		f := inflight{input: i % len(r.inputs), due: due, sent: due}
		if open {
			f.sent = r.clock.Now()
		}
		ch, err := r.gw.Submit(sessionName(i), r.inputs[f.input])
		f.admit = r.clock.Now() - f.sent
		ph.sent++
		if err != nil {
			ph.failed++
			if !open {
				<-window
			}
			continue
		}
		f.ch = ch
		pending <- f
	}
	close(pending)
	wg.Wait()

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ph.failed += errored
	ph.wall = end - start
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	return ph, swingErr
}

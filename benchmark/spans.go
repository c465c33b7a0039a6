package main

import (
	"fmt"

	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
)

// Span names, outermost first. A request's exec span covers its whole
// micro-batch, so every offload of the batch blocks every request in it.
const (
	spanRequest = "request"
	spanLate    = "loadgen.late"
	spanSubmit  = "gateway.submit"
	spanQueue   = "gateway.queue"
	spanExec    = "gateway.exec"
	spanOffload = "serving.offload"
)

// requestSpans joins what the benchmark timed around its own calls (due
// time, Submit, each offload) with what the gateway's tracer recorded inside
// (queue, dispatch, completion) into one span tree per request:
//
//	request → loadgen.late, gateway.submit, gateway.queue, gateway.exec → serving.offload
//
// It also returns, per request, the latency no stage accounts for: the part
// of the request no span covers, plus the part of exec's self time that the
// replayed edge prefix at that batch size does not explain.
func requestSpans(r *rig, dones []done, traces []telemetry.Trace, calls []offloadCall, st *stages) ([]span, []float64, error) {
	byID := make(map[uint64]telemetry.Trace, len(traces))
	for _, t := range traces {
		byID[t.ID] = t
	}
	byLogits := make(map[*float64]offloadCall, len(calls))
	for _, c := range calls {
		if c.logits != nil {
			byLogits[c.logits] = c
		}
	}

	// Batch-mates were picked up and finished at the same two clock reads.
	type batchKey struct{ start, end float64 }
	type request struct {
		root, exec span
		stages     []span // the root's children
		done       *done
	}
	var (
		spans    spanList
		requests []request
		batches  = make(map[batchKey]int)
		offloads = make(map[int][]span) // by batch
	)
	for i := range dones {
		d := &dones[i]
		tr, ok := byID[d.res.RequestID]
		if !ok {
			return nil, nil, fmt.Errorf("%s: request %d has no trace", r.spec.name, d.res.RequestID)
		}
		var queue, route *telemetry.Span
		for j := range tr.Spans {
			switch tr.Spans[j].Name {
			case "queue":
				queue = &tr.Spans[j]
			case "batch", "error":
			default:
				route = &tr.Spans[j]
			}
		}
		if queue == nil || route == nil {
			return nil, nil, fmt.Errorf("%s: trace of request %d lacks a queue or route span", r.spec.name, tr.ID)
		}
		key := batchKey{queue.EndMS, route.EndMS}
		batch, ok := batches[key]
		if !ok {
			batch = len(batches) + 1
			batches[key] = batch
		}
		req := tr.ID
		root := spans.add(span{Req: req, Name: spanRequest, Detail: tr.Label, Start: ms(d.due), End: tr.EndMS})
		exec := span{
			Parent: root.ID, Req: req, Batch: batch, Name: spanExec,
			Detail: fmt.Sprintf("%s size=%d", d.res.Route, d.res.BatchSize), Start: queue.EndMS, End: tr.EndMS,
		}
		rq := request{root: root, done: d}
		for _, s := range []span{
			{Parent: root.ID, Req: req, Name: spanLate, Start: ms(d.due), End: ms(d.sent)},
			{Parent: root.ID, Req: req, Name: spanSubmit, Start: ms(d.sent), End: ms(d.sent + d.admit)},
			{Parent: root.ID, Req: req, Name: spanQueue, Start: queue.StartMS, End: queue.EndMS},
			exec,
		} {
			rq.stages = append(rq.stages, spans.add(s))
		}
		rq.exec = rq.stages[len(rq.stages)-1]
		requests = append(requests, rq)
		if d.res.Route != serving.RouteOffloaded {
			continue
		}
		c, ok := byLogits[&d.res.Logits[0]]
		if !ok {
			return nil, nil, fmt.Errorf("%s: offloaded request %d matches no offload call", r.spec.name, req)
		}
		off := spans.add(span{Parent: rq.exec.ID, Req: req, Batch: batch, Name: spanOffload, Start: ms(c.start), End: ms(c.end)})
		offloads[batch] = append(offloads[batch], off)
	}

	unaccounted := make([]float64, 0, len(requests))
	for _, rq := range requests {
		prefix, err := st.edgePrefixMS(r.variants[rq.done.res.VariantSig], rq.done.res.BatchSize)
		if err != nil {
			return nil, nil, err
		}
		staged := cover(rq.root.Start, rq.root.End, rq.stages) - selfTime(rq.exec, offloads[rq.exec.Batch]) + prefix
		unaccounted = append(unaccounted, rq.root.dur()-staged)
	}
	return spans, unaccounted, nil
}

// selfTimes is the median self time per span name. An exec span's children
// are the offloads of its whole batch, not only the one that carried its own
// request's activation.
func selfTimes(spans []span) map[string]float64 {
	byParent := make(map[int][]span)
	byBatch := make(map[int][]span)
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
		if s.Name == spanOffload {
			byBatch[s.Batch] = append(byBatch[s.Batch], s)
		}
	}
	self := make(map[string][]float64)
	for _, s := range spans {
		children := byParent[s.ID]
		if s.Name == spanExec {
			children = byBatch[s.Batch]
		}
		self[s.Name] = append(self[s.Name], selfTime(s, children))
	}
	out := make(map[string]float64, len(self))
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

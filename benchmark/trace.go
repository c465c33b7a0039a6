package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into that layer (or rebuilt from the gateway's own
// telemetry.Trace when the boundary is inside the gateway). Times are
// milliseconds on the run clock.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Req    uint64  `json:"req"`    // gateway request id; every span of one request shares it
	Batch  int     `json:"batch,omitempty"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

func (s span) dur() float64 { return s.End - s.Start }

// cover is the length of the part of [lo, hi] that the children cover. The
// children may overlap one another and may stick out of the interval.
func cover(lo, hi float64, children []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, end := 0.0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, children []span) float64 {
	return s.dur() - cover(s.Start, s.End, children)
}

// spanList hands out span ids in the order spans are added.
type spanList []span

func (l *spanList) add(s span) span {
	s.ID = len(*l) + 1
	*l = append(*l, s)
	return s
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfMS is the median self time per span name, over the spans in Spans.
	SelfMS map[string]float64 `json:"self_ms_median"`
	Spans  []span             `json:"spans"`
}

// writeTrace writes the run's spans to trace-<workload>.json and notes the
// median self time of every span name beside the metrics.
func (o *outcome) writeTrace(opts options, spans []span) error {
	tf := traceFile{Workload: o.workload, Seed: opts.seed, Spans: spans, SelfMS: selfTimes(spans)}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return fmt.Errorf("%s: trace file: %w", o.workload, err)
	}
	path := filepath.Join(opts.outDir, "trace-"+o.workload+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("%s: trace file: %w", o.workload, err)
	}
	o.note("trace %s holds %d spans", path, len(spans))
	names := make([]string, 0, len(tf.SelfMS))
	for name := range tf.SelfMS {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.note("self_ms %-22s %.4f", name, tf.SelfMS[name])
	}
	return nil
}

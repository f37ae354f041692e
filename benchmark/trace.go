package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Spans are recorded only by the benchmark's own files: the
// product carries no instrumentation in this PR. One root span per
// session or request; child spans around each layer call inside it.
type span struct {
	ID     int32
	Parent int32 // -1 for a root
	Name   string
	Round  int32
	Op     int32
	Start  int64 // ns since the tracer's origin
	End    int64
	Alloc  int64 // heap bytes allocated inside the span, where measured

	hasAlloc bool
}

// tracer is an in-memory span recorder owned by one goroutine. A nil
// tracer records nothing, so the untraced run pays one nil check per
// call site. Concurrent clients each own a tracer with a distinct id
// base; their spans are concatenated after the round.
type tracer struct {
	origin time.Time
	round  int32
	base   int32
	spans  []span
}

func newTracer(origin time.Time, base int32) *tracer {
	return &tracer{origin: origin, round: -1, base: base}
}

// reset empties the tracer for the next round and keeps its buffer.
func (t *tracer) reset(round int32) { t.round, t.spans = round, t.spans[:0] }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, op int32, alloc bool) int32 {
	if t == nil {
		return -1
	}
	id := t.base + int32(len(t.spans))
	s := span{ID: id, Parent: parent, Name: name, Round: t.round, Op: op, hasAlloc: alloc}
	if alloc {
		s.Alloc = -int64(heapAllocBytes())
	}
	s.Start = int64(time.Since(t.origin))
	t.spans = append(t.spans, s)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id-t.base]
	s.End = int64(time.Since(t.origin))
	if s.hasAlloc {
		s.Alloc += int64(heapAllocBytes())
	}
}

// add records a finished childless root span from timestamps the
// caller already took, so a microsecond-scale request loop pays no
// extra clock reads for being traced.
func (t *tracer) add(name string, op int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: t.base + int32(len(t.spans)), Parent: -1, Name: name, Round: t.round, Op: op,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes reads the cumulative heap allocation counter (the
// runtime/metrics twin of MemStats.TotalAlloc) without stopping the
// world. Callers serialise: it is read around single-goroutine spans
// and around whole rounds only.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// selfTimes maps each span id to its self time: the span's duration
// minus the part of that interval its direct children cover. Children
// that overlap each other (parallel calls) are counted once.
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// maxSpansWritten caps the trace file: serve-hot records a million
// request spans per round, and the per-layer numbers are derived from
// all of them in memory before the file is written.
const maxSpansWritten = 50000

type spanJSON struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Round    int32  `json:"round"`
	Op       int32  `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	SelfNS   int64  `json:"self_ns"`
	Alloc    int64  `json:"alloc_bytes"`
}

// writeTrace dumps the last traced round's spans; called after the
// last round so the file write never shares the machine with a clock.
func writeTrace(path, workload string, seed int64, parts ...[]span) error {
	total := 0
	var spans []span
	for _, p := range parts {
		total += len(p)
		spans = append(spans, p[:min(len(p), maxSpansWritten-len(spans))]...)
	}
	self := selfTimes(spans)
	out := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Total    int        `json:"spans_total"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Seed: seed, Total: total}
	for _, s := range spans {
		out.Spans = append(out.Spans, spanJSON{s.ID, s.Parent, s.Name, workload, s.Round, s.Op, s.Start, s.End, self[s.ID], s.Alloc})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies what a span times. Every span is recorded by this
// benchmark's own code around one call into a layer's public API, or
// around an interval the benchmark observes from outside (detection and
// restore during a recovery).
type spanName uint8

const (
	spNetStep spanName = iota
	spTransmit
	spInjectRx
	spAdvance
	spDrain
	spPCMCycle
	spConfigure
	spStart
	spStop
	spTrackGap
	spOutage
	spKillWorker
	spDetect
	spRestore
	spCounters
	spCrossChunk1
	spCrossChunk32
	spRespawn
	spEncode
	spDecode
	spDispatch
	spRusage
	spMemStats
	numSpanNames
)

// spanInfo gives each span its layer (the repository module the call
// enters) and the call or interval it covers.
var spanInfo = [numSpanNames]struct{ layer, call string }{
	spNetStep:      {"bench", "net.step"},
	spTransmit:     {"knet", "NetDevice.Transmit"},
	spInjectRx:     {"hw", "e1000hw.Device.InjectRx"},
	spAdvance:      {"ktime", "Clock.Advance"},
	spDrain:        {"kernel", "System.DrainDeferredWork"},
	spPCMCycle:     {"bench", "pcm.cycle"},
	spConfigure:    {"ksound", "Substream.Configure"},
	spStart:        {"ksound", "Substream.Start"},
	spStop:         {"ksound", "Substream.Stop"},
	spTrackGap:     {"ktime", "Clock.Advance (track gap)"},
	spOutage:       {"bench", "recover.outage"},
	spKillWorker:   {"xpc/proc", "ProcTransport.KillWorker"},
	spDetect:       {"recovery", "detect"},
	spRestore:      {"recovery", "restore"},
	spCounters:     {"xpc", "Runtime.Counters"},
	spCrossChunk1:  {"xpc/proc", "ProcTransport.CrossChunk/1"},
	spCrossChunk32: {"xpc/proc", "ProcTransport.CrossChunk/32"},
	spRespawn:      {"xpc/proc", "ProcTransport.RespawnWorker"},
	spEncode:       {"xdr", "AppendFrame"},
	spDecode:       {"xdr", "DecodeFrame"},
	spDispatch:     {"decaf/registry", "Lookup+Fn"},
	spRusage:       {"process", "getrusage+/proc/<pid>/stat+MemStats"},
	spMemStats:     {"go", "runtime.ReadMemStats"},
}

// span is one recorded interval. All spans of one frame, cycle, kill or
// replay share an ID; parent indexes the enclosing span (-1 for a root).
type span struct {
	start, end int64 // ns since the tracer's base
	id         uint64
	parent     int32
	name       spanName
}

type openSpan struct {
	name  spanName
	id    uint64
	start int64
	child int64 // time covered by child spans
	idx   int32 // index in tracer.spans, -1 when not stored
}

// tracer keeps spans in memory and writes them out when the run ends.
// Self time (duration minus the part covered by child spans) is folded
// into a histogram per span name for every span; the span records
// themselves are stored for sampled roots only (see keepRoots, plus every
// recovery interval), so a long run stays within a fixed memory budget.
type tracer struct {
	base    time.Time
	spans   []span
	limit   int
	dropped uint64
	stack   []openSpan
	keep    bool
	roots   [numSpanNames]int // stored roots per name
	self    [numSpanNames]hist
}

// keepEvery and keepRoots choose the stored roots: every keepEvery-th ID,
// at most keepRoots per root name, so that one long loop cannot crowd the
// other layers' spans out of the store.
const (
	keepEvery = 64
	keepRoots = 1024
)

func newTracer(base time.Time) *tracer {
	const limit = 1 << 16
	return &tracer{base: base, spans: make([]span, 0, limit), limit: limit}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span nested in the innermost open one. Methods on a nil
// tracer do nothing, so untraced runs pay one branch per call.
func (t *tracer) begin(n spanName, id uint64) {
	if t == nil {
		return
	}
	o := openSpan{name: n, id: id, idx: -1}
	parent := int32(-1)
	if len(t.stack) == 0 {
		t.keep = id%keepEvery == 0 && t.roots[n] < keepRoots
		if t.keep {
			t.roots[n]++
		}
	} else {
		parent = t.stack[len(t.stack)-1].idx
	}
	if t.keep {
		o.idx = t.store(span{id: id, parent: parent, name: n})
	}
	o.start = t.now()
	t.stack = append(t.stack, o)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	e := t.now()
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := e - o.start
	t.self[o.name].add(uint64(max(0, d-o.child)))
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].start, t.spans[o.idx].end = o.start, e
	}
}

// interval records a span whose bounds the caller observed (start and end
// in tracer time), with no children of its own. It returns the stored
// index so further intervals can name it as their parent.
func (t *tracer) interval(n spanName, id uint64, parent int32, start, end int64, childTime int64) int32 {
	if t == nil {
		return -1
	}
	t.self[n].add(uint64(max(0, end-start-childTime)))
	return t.store(span{start: start, end: end, id: id, parent: parent, name: n})
}

func (t *tracer) store(s span) int32 {
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// layers lists the layers that have at least one recorded span.
func (t *tracer) layers() map[string]uint64 {
	out := make(map[string]uint64)
	for n := spanName(0); n < numSpanNames; n++ {
		if c := t.self[n].n; c > 0 {
			out[spanInfo[n].layer] += c
		}
	}
	return out
}

// write saves the stored spans and the per-name self-time summary as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	type selfRow struct {
		Layer  string  `json:"layer"`
		Call   string  `json:"call"`
		Count  uint64  `json:"count"`
		MeanNs float64 `json:"self_mean_ns"`
		P50Ns  float64 `json:"self_p50_ns"`
	}
	var rows []selfRow
	for n := spanName(0); n < numSpanNames; n++ {
		h := &t.self[n]
		if h.n == 0 {
			continue
		}
		p50, _ := h.median()
		rows = append(rows, selfRow{spanInfo[n].layer, spanInfo[n].call, h.n, h.mean(), p50})
	}
	head, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "clock": "wall-clock, monotonic ns since run start",
		"spans_stored": len(t.spans), "spans_dropped": t.dropped, "self_time": rows,
	})
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	// The header object is one line; one span follows per line.
	fmt.Fprintf(w, "%s\n", head)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"layer":%q,"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanInfo[s.name].layer, spanInfo[s.name].call, s.id, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

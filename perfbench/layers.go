package main

import (
	"fmt"
	"runtime"
	"time"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/xdr"
	"decafdrivers/internal/xpc"
)

// perLayer lists every per-layer metric in report order, with its unit.
// Each traced run reports all of them: layers a workload does not drive
// are replayed in isolation from inputs generated with the same seed.
var perLayer = []struct{ name, unit string }{
	{"knet.transmit_ns", "ns"},
	{"knet.held_tx_peak", "count"},
	{"kernel.drain_ns", "ns"},
	{"ktime.advance_ns", "ns"},
	{"hw.inject_rx_ns", "ns"},
	{"ksound.configure_p50_us", "us"},
	{"ksound.configure_p99_us", "us"},
	{"ksound.start_p50_us", "us"},
	{"ksound.start_p99_us", "us"},
	{"ksound.stop_p50_us", "us"},
	{"ksound.stop_p99_us", "us"},
	{"xpc.calls_per_crossing", "calls"},
	{"xpc.ring_share", "frac"},
	{"xpc.direct_share", "frac"},
	{"xpc.ring_exhausted", "count"},
	{"xpc.wire_bytes_per_call", "B"},
	{"xpc.doorbells_per_crossing", "frac"},
	{"xpc.lane_spills", "count"},
	{"xpc.crossings_per_op", "count"},
	{"xpc.syscalls_per_op", "count"},
	{"xpc.served_per_op", "count"},
	{"xpc.worker_downcalls_per_op", "count"},
	{"proc.cross_chunk1_ns", "ns"},
	{"proc.cross_chunk32_ns", "ns"},
	{"proc.cross_allocs", "count"},
	{"proc.respawn_ms", "ms"},
	{"xdr.encode_ns", "ns"},
	{"xdr.decode_ns", "ns"},
	{"registry.dispatch_ns", "ns"},
	{"recovery.detect_ms", "ms"},
	{"recovery.restore_ms", "ms"},
	{"recovery.recoveries", "count"},
	{"recovery.failed_restarts", "count"},
	{"recovery.fail_stops", "count"},
	{"recovery.replayed", "count"},
	{"recovery.held_replayed", "count"},
	{"recovery.held_dropped", "count"},
	{"recovery.slots_reclaimed", "count"},
	{"cpu.kernel_ns_per_op", "ns"},
	{"cpu.worker_ns_per_call", "ns"},
	{"go.allocs_per_op", "count"},
	{"go.bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_max_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// layerSet collects per-layer values by name until emit orders them.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, note string) {
	l[name] = metric{name: name, value: v, note: note}
}

func (l layerSet) setRatio(name string, r ratio) { l.set(name, r.value(), r.String()) }

// setQuantiles stores a histogram's median and p99 (ns samples) in µs.
func (l layerSet) setQuantiles(p50, p99 string, h *hist) {
	for _, m := range latency(h, p50, p99, "self time") {
		l[m.name] = m
	}
}

// emit appends every per-layer metric to res in order; a metric no part of
// the run measured is a bug in the benchmark, reported as an error.
func (l layerSet) emit(res *result) error {
	for _, p := range perLayer {
		m, ok := l[p.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", p.name)
		}
		m.unit = p.unit
		res.add(m)
	}
	return nil
}

// xpcDeltas derives the runtime's per-layer ratios from two Counters
// snapshots around a window of ops operations (frames or cycles).
func (l layerSet) xpcDeltas(a, b xpc.Counters, ops uint64, op string) {
	calls := float64(b.Calls() - a.Calls())
	trips := float64(b.Trips() - a.Trips())
	ring := float64(b.RingCrossings - a.RingCrossings)
	sys := float64(b.SyscallCrossings - a.SyscallCrossings)
	direct := float64(b.BytesPayloadDirect - a.BytesPayloadDirect)
	copied := float64(b.BytesPayloadCopied - a.BytesPayloadCopied)
	wire := float64(b.WireBytesOut + b.WireBytesIn - a.WireBytesOut - a.WireBytesIn)
	n := float64(ops)
	l.setRatio("xpc.calls_per_crossing", ratio{calls, trips, "crossings"})
	l.setRatio("xpc.ring_share", ratio{ring, ring + sys, "ring+syscall crossings"})
	l.setRatio("xpc.direct_share", ratio{direct, direct + copied, "payload bytes"})
	l.set("xpc.ring_exhausted", float64(b.RingExhausted-a.RingExhausted), "count over the window")
	l.setRatio("xpc.wire_bytes_per_call", ratio{wire, calls, "calls"})
	l.setRatio("xpc.doorbells_per_crossing", ratio{float64(b.DoorbellWakeups - a.DoorbellWakeups), ring, "ring crossings"})
	l.set("xpc.lane_spills", float64(b.LaneSpills-a.LaneSpills), "count over the window")
	l.setRatio("xpc.crossings_per_op", ratio{trips, n, op})
	l.setRatio("xpc.syscalls_per_op", ratio{sys, n, op})
	l.setRatio("xpc.served_per_op", ratio{float64(b.WorkerServedCalls - a.WorkerServedCalls), n, op})
	l.setRatio("xpc.worker_downcalls_per_op", ratio{float64(b.WorkerDowncalls - a.WorkerDowncalls), n, op})
}

// layerWindow holds the runtime-counter and process readings at the start
// of a window whose per-layer deltas are reported.
type layerWindow struct {
	rt   *xpc.Runtime
	pt   *xpc.ProcTransport
	xpc  xpc.Counters
	proc procSnap
}

// read takes both readings, each under its layer's span.
func (w *layerWindow) read(tr *tracer) (c xpc.Counters, p procSnap, err error) {
	tr.begin(spCounters, 0)
	c = w.rt.Counters()
	tr.end()
	tr.begin(spRusage, 0)
	p, err = takeProcSnap(w.pt.WorkerPID())
	tr.end()
	return c, p, err
}

func openLayerWindow(tr *tracer, rt *xpc.Runtime, pt *xpc.ProcTransport) (layerWindow, error) {
	w := layerWindow{rt: rt, pt: pt}
	var err error
	w.xpc, w.proc, err = w.read(tr)
	return w, err
}

// close reads again and sets the runtime and process metrics for a window
// of ops operations.
func (w *layerWindow) close(tr *tracer, l layerSet, ops uint64, op string) error {
	c, p, err := w.read(tr)
	if err != nil {
		return err
	}
	l.xpcDeltas(w.xpc, c, ops, op)
	l.process(w.proc, p, ops, c.WorkerServedCalls-w.xpc.WorkerServedCalls, op)
	tr.begin(spMemStats, 0)
	l.set("go.gc_pause_max_ms", float64(maxGCPauseSince(w.proc.numGC))/1e6, "wall-clock, longest stop-the-world pause in the window")
	tr.end()
	return nil
}

// process derives CPU and Go-runtime costs over a window of ops operations
// in which the worker served served calls.
func (l layerSet) process(a, b procSnap, ops, served uint64, op string) {
	n := float64(ops)
	l.setRatio("cpu.kernel_ns_per_op", ratio{float64(b.cpu - a.cpu), n, op + " (getrusage, kernel-side process)"})
	l.setRatio("cpu.worker_ns_per_call", ratio{float64(b.workerCPU - a.workerCPU), float64(served), "worker-served calls (/proc/<pid>/stat)"})
	l.setRatio("go.allocs_per_op", ratio{float64(b.mallocs - a.mallocs), n, op})
	l.setRatio("go.bytes_per_op", ratio{float64(b.allocBytes - a.allocBytes), n, op})
	l.set("go.gc_cycles", float64(b.numGC-a.numGC), "count over the window")
}

// overhead reports the traced run's rate against the untraced one.
func (l layerSet) overhead(untraced, traced float64, op string) {
	l.set("trace.overhead_frac", 1-traced/untraced,
		fmt.Sprintf("1 - traced/untraced wall-clock rate: %.0f/%.0f %s per second", traced, untraced, op))
}

// netSpans reads the net layers' mean self times from a traced window.
func (l layerSet) netSpans(tr *tracer) {
	for _, s := range []struct {
		name string
		span spanName
	}{{"knet.transmit_ns", spTransmit}, {"kernel.drain_ns", spDrain}, {"ktime.advance_ns", spAdvance}, {"hw.inject_rx_ns", spInjectRx}} {
		h := &tr.self[s.span]
		l.set(s.name, h.mean(), fmt.Sprintf("wall-clock mean self time, n=%d", h.n))
	}
}

// pcmSpans reads the ksound calls' self-time percentiles.
func (l layerSet) pcmSpans(tr *tracer) {
	l.setQuantiles("ksound.configure_p50_us", "ksound.configure_p99_us", &tr.self[spConfigure])
	l.setQuantiles("ksound.start_p50_us", "ksound.start_p99_us", &tr.self[spStart])
	l.setQuantiles("ksound.stop_p50_us", "ksound.stop_p99_us", &tr.self[spStop])
}

// recoveryStats reports a recovery-armed rig's outages and the
// supervisor's counter deltas.
func (l layerSet) recoveryStats(r *netRig, a, b recovery.Stats) {
	d, _ := r.detects.median()
	s, _ := r.restores.median()
	l.set("recovery.detect_ms", d/1e6, fmt.Sprintf("wall-clock median, kill to fault counted, n=%d", r.detects.n))
	l.set("recovery.restore_ms", s/1e6, fmt.Sprintf("wall-clock median, fault counted to monitoring, n=%d", r.restores.n))
	l.set("recovery.recoveries", float64(b.Recoveries-a.Recoveries), "count")
	l.set("recovery.failed_restarts", float64(b.FailedRestarts-a.FailedRestarts), "count")
	l.set("recovery.fail_stops", float64(b.FailStops-a.FailStops), "count")
	l.set("recovery.replayed", float64(b.Replayed-a.Replayed), "count, journal entries")
	l.set("recovery.held_replayed", float64(b.HeldReplayed-a.HeldReplayed), "count, frames")
	l.set("recovery.held_dropped", float64(b.HeldDropped-a.HeldDropped), "count, frames")
	l.set("recovery.slots_reclaimed", float64(b.SlotsReclaimed-a.SlotsReclaimed), "count, payload-ring slots")
	l.set("knet.held_tx_peak", float64(r.heldPeak), "count, most frames held at once during an outage")
}

// replayReps is how many times each isolated layer call is repeated.
const replayReps = 4096

// crossChunk times ProcTransport.CrossChunk, the boundary layer of one
// crossing, for chunks of 1 and procBatch calls carrying the workload's
// payloads, and counts its allocations per chunk.
func (l layerSet) crossChunk(tr *tracer, ctx *kernel.Context, rt *xpc.Runtime, pt *xpc.ProcTransport, name string, payloads [][]byte) error {
	chunk := func(n, off int) []*xpc.Submission {
		subs := make([]*xpc.Submission, n)
		for i := range subs {
			subs[i] = rt.NewSubmission(&xpc.Call{Name: name, Up: true, Data: payloads[(off+i)%len(payloads)]})
		}
		return subs
	}
	for _, c := range []struct {
		n    int
		span spanName
		name string
	}{{1, spCrossChunk1, "proc.cross_chunk1_ns"}, {procBatch, spCrossChunk32, "proc.cross_chunk32_ns"}} {
		chunks := make([][]*xpc.Submission, 64)
		for i := range chunks {
			chunks[i] = chunk(c.n, i*c.n)
		}
		reps := replayReps / c.n
		for i := 0; i < reps; i++ {
			tr.begin(c.span, uint64(i))
			err := pt.CrossChunk(rt, ctx, chunks[i%len(chunks)])
			tr.end()
			if err != nil {
				return fmt.Errorf("cross chunk: %w", err)
			}
		}
		h := &tr.self[c.span]
		l.set(c.name, h.mean(), fmt.Sprintf("wall-clock mean per chunk of %d, n=%d", c.n, h.n))
		if c.n == procBatch {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			for i := 0; i < reps; i++ {
				if err := pt.CrossChunk(rt, ctx, chunks[i%len(chunks)]); err != nil {
					return fmt.Errorf("cross chunk: %w", err)
				}
			}
			runtime.ReadMemStats(&b)
			l.setRatio("proc.cross_allocs", ratio{float64(b.Mallocs - a.Mallocs), float64(reps), "chunks of 32"})
		}
	}
	return nil
}

// codec times the wire codec on the workload's call frames.
func (l layerSet) codec(tr *tracer, name string, payloads [][]byte) error {
	buf := make([]byte, 0, 4096)
	for i := 0; i < replayReps; i++ {
		f := xdr.Frame{Kind: xdr.FrameCall, ID: uint64(i), Name: name, Data: payloads[i%len(payloads)]}
		tr.begin(spEncode, uint64(i))
		out, err := xdr.AppendFrame(buf[:0], f)
		tr.end()
		if err != nil {
			return fmt.Errorf("xdr encode: %w", err)
		}
		tr.begin(spDecode, uint64(i))
		g, n, err := xdr.DecodeFrame(out)
		tr.end()
		if err != nil || n != len(out) || g.ID != f.ID || string(g.Data) != string(f.Data) {
			return fmt.Errorf("xdr round trip of frame %d failed (%v)", i, err)
		}
		buf = out
	}
	for _, s := range []struct {
		name string
		span spanName
	}{{"xdr.encode_ns", spEncode}, {"xdr.decode_ns", spDecode}} {
		h := &tr.self[s.span]
		l.set(s.name, h.mean(), fmt.Sprintf("wall-clock mean per frame, n=%d", h.n))
	}
	return nil
}

// dispatch times the handler table: Lookup plus the registered body, run
// against private heap state with a downcall hook that returns at once.
func (l layerSet) dispatch(tr *tracer, name string, payloads [][]byte) error {
	st := registry.NewState()
	down := func(string, uint64) (uint64, error) { return 0, nil }
	for i := 0; i < replayReps; i++ {
		tr.begin(spDispatch, uint64(i))
		h := registry.Lookup(name)
		var err error
		if h != nil {
			err = h.Fn(registry.NewCtx(name, payloads[i%len(payloads)], st, down))
		}
		tr.end()
		if h == nil || err != nil {
			return fmt.Errorf("registry dispatch of %s: handler %v, err %v", name, h != nil, err)
		}
	}
	h := &tr.self[spDispatch]
	l.set("registry.dispatch_ns", h.mean(), fmt.Sprintf("wall-clock mean per call, n=%d", h.n))
	return nil
}

// respawnReps is how many worker respawns proc.respawn_ms is the median of.
const respawnReps = 5

// respawn times ProcTransport.RespawnWorker: teardown, a fresh worker
// process and its handshake.
func (l layerSet) respawn(tr *tracer, pt *xpc.ProcTransport) error {
	var times []float64
	for i := 0; i < respawnReps; i++ {
		t0 := time.Now()
		tr.begin(spRespawn, uint64(i))
		err := pt.RespawnWorker()
		tr.end()
		if err != nil {
			return fmt.Errorf("respawn: %w", err)
		}
		times = append(times, float64(time.Since(t0))/1e6)
	}
	l.set("proc.respawn_ms", median(times), fmt.Sprintf("wall-clock median of %d", respawnReps))
	return nil
}

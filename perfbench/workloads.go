package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"decafdrivers/internal/xpc"
)

// An untraced net-duplex or pcm-ctl run spreads its timed window over
// rigsPerRun freshly booted testbeds, each with its own worker process. How
// a testbed's two processes land on the CPUs persists for its lifetime and
// moved one testbed's p99 by a factor of two against the next, so one
// testbed per run would make the run's figures depend on that draw.
const rigsPerRun = 20

// steadyTime is how long a testbed runs untimed after set-up and before its
// share of the timed window. A fresh testbed runs slower at first while its
// two processes and the heap and GC pacer settle; that is neither set-up
// work nor steady-state cost, so it is left out of every figure.
const steadyTime = 250 * time.Millisecond

// Replay sizes for layers a traced run exercises outside its own workload.
const (
	replayNetSteps  = 20000
	replayPCMCycles = 1500
	replayKills     = 4
)

func bootWarmNet(cfg netConfig, base time.Time) (*netRig, error) {
	r, err := bootNet(cfg, base)
	if err != nil {
		return nil, err
	}
	r.run(0, warmSteps)
	r.settle()
	return r, nil
}

func bootWarmPCM(seed uint64, base time.Time) (*pcmRig, error) {
	r, err := bootPCM(seed, base)
	if err != nil {
		return nil, err
	}
	r.run(0, warmCycles)
	return r, nil
}

// netTotals adds a net window's attempted and failed frames; unoffered
// counts scheduled frames that were never offered.
func (res *result) netTotals(a, b netSnap, unoffered uint64) {
	res.attempted += (b.txSeq - a.txSeq) + (b.rxSeq - a.rxSeq) + (b.rxRefused - a.rxRefused) + unoffered
	res.failed += (b.txRefused - a.txRefused) + (b.rxRefused - a.rxRefused) + dropped(a, b) + unoffered
}

// runNetDuplex: the e1000 closed loop, TX and RX in every step.
func runNetDuplex(o options) (*result, error) {
	base := time.Now()
	res := &result{workload: o.workload}
	cfg := netConfig{seed: o.seed, duplex: true, corrupt: o.corrupt}
	boot := func() (*netRig, error) { return bootWarmNet(cfg, base) }
	if o.trace {
		rig, err := boot()
		if err != nil {
			return nil, err
		}
		defer rig.close()
		rig.run(steadyTime, 0)
		rig.settle()
		a := rig.snap()
		l, tr, err := tracedWindow(o, rig.tb.Runtime, rig.pt, base, "frame steps", rig.run, func(t *tracer) { rig.tr = t })
		if err != nil {
			return nil, err
		}
		rig.settle()
		b := rig.snap()
		res.fail(rig.check(a, b))
		res.netTotals(a, b, 0)
		l.netSpans(tr)
		if err := netLayers(tr, l, rig); err != nil {
			return nil, err
		}
		if err := replayPCM(o, base, tr, l); err != nil {
			return nil, err
		}
		return res, finishTraced(o, tr, l, res, replayRecovery(o, base, tr, l))
	}
	setup, err := setupSeconds(boot)
	if err != nil {
		return nil, err
	}
	var rss rssPeak
	var txAll, rxAll hist
	var moved uint64
	var timed time.Duration
	for j := 0; j < rigsPerRun; j++ {
		rig, err := boot()
		if err != nil {
			return nil, err
		}
		rig.run(steadyTime, 0)
		rig.settle()
		a := rig.snap()
		rig.resetHists()
		_, el := rig.run(seconds(o.seconds/rigsPerRun), 0)
		rss.sample(rig.pt.WorkerPID())
		rig.settle()
		b := rig.snap()
		res.fail(rig.check(a, b))
		res.netTotals(a, b, 0)
		moved += (b.txWire - a.txWire) + (b.rxGot - a.rxGot)
		timed += el
		txAll.merge(&rig.txLat)
		rxAll.merge(&rig.rxLat)
		rig.close()
	}
	fps := metric{name: "ops_per_s", unit: "1/s", value: float64(moved) / timed.Seconds(),
		note: fmt.Sprintf("net_fps: wall-clock frames moved (TX at the wire + RX at the sink) per second over %d testbeds", rigsPerRun)}
	tx, rx := "Transmit to wire", "InjectRx to RX sink"
	res.add(fps)
	res.metrics = append(res.metrics, latency(&txAll, "lat_p50_us", "lat_p99_us", tx)...)
	res.metrics = append(res.metrics, latency(&rxAll, "lat2_p50_us", "lat2_p99_us", rx)...)
	fps.name = "net_fps"
	res.note(fps)
	res.report = append(res.report, latency(&txAll, "tx_lat_p50_us", "tx_lat_p99_us", tx)...)
	res.report = append(res.report, latency(&rxAll, "rx_lat_p50_us", "rx_lat_p99_us", rx)...)
	res.common(setup, rss)
	res.correct = len(res.problems) == 0
	return res, nil
}

// tracedWindow runs a traced run's window: an untraced third gives the
// runtime-counter and process metrics and the untraced rate, a traced two
// thirds the span self times and the traced rate.
func tracedWindow(o options, rt *xpc.Runtime, pt *xpc.ProcTransport, base time.Time, op string,
	run func(time.Duration, uint64) (uint64, time.Duration), attach func(*tracer)) (layerSet, *tracer, error) {
	l := layerSet{}
	tr := newTracer(base)
	d := seconds(o.seconds)
	lw, err := openLayerWindow(tr, rt, pt)
	if err != nil {
		return nil, nil, err
	}
	nU, elU := run(d/3, 0)
	if err := lw.close(tr, l, nU, op); err != nil {
		return nil, nil, err
	}
	attach(tr)
	nT, elT := run(2*d/3, 0)
	attach(nil)
	l.overhead(float64(nU)/elU.Seconds(), float64(nT)/elT.Seconds(), op)
	return l, tr, nil
}

// netLayers replays the crossing, codec and dispatch layers with the net
// workload's frames, on its own transport.
func netLayers(tr *tracer, l layerSet, r *netRig) error {
	const call = "e1000_xmit_frame"
	payloads := r.txPool.frames[:]
	if err := l.crossChunk(tr, r.ctx, r.tb.Runtime, r.pt, call, payloads); err != nil {
		return err
	}
	if err := l.codec(tr, call, payloads); err != nil {
		return err
	}
	return l.dispatch(tr, call, payloads)
}

// finishTraced writes the spans and emits every per-layer metric, unless
// an earlier step of the traced run failed with err.
func finishTraced(o options, tr *tracer, l layerSet, res *result, err error) error {
	if err != nil {
		return err
	}
	if err := tr.write(spansPath(o), o.workload, o.seed); err != nil {
		return err
	}
	res.note(metric{name: "trace.spans", unit: "count", value: float64(len(tr.spans)),
		note: fmt.Sprintf("stored in %s (%d dropped); %s", spansPath(o), tr.dropped, describe(tr.layers()))})
	if err := l.emit(res); err != nil {
		return err
	}
	res.correct = len(res.problems) == 0
	return nil
}

// replayPCM drives a short pcm-ctl window under the tracer for the ksound
// layer metrics.
func replayPCM(o options, base time.Time, tr *tracer, l layerSet) error {
	r, err := bootWarmPCM(o.seed, base)
	if err != nil {
		return err
	}
	defer r.close()
	r.tr = tr
	r.run(0, replayPCMCycles)
	r.tr = nil
	if r.failed > 0 || r.mismatches > 0 {
		return fmt.Errorf("pcm replay: %d failed cycles, %d mismatches (%s)", r.failed, r.mismatches, r.firstBad)
	}
	l.pcmSpans(tr)
	return nil
}

// replayNet boots a duplex testbed and runs replayNetSteps frame steps
// under tr, checking its output; the caller closes the returned rig.
func replayNet(o options, base time.Time, tr *tracer) (*netRig, time.Duration, error) {
	r, err := bootWarmNet(netConfig{seed: o.seed, duplex: true}, base)
	if err != nil {
		return nil, 0, err
	}
	a := r.snap()
	r.tr = tr
	_, el := r.run(0, replayNetSteps)
	r.tr = nil
	r.settle()
	if errs := r.check(a, r.snap()); len(errs) > 0 {
		r.close()
		return nil, 0, fmt.Errorf("net replay: %s", errs[0])
	}
	return r, el, nil
}

// replayRecovery runs a few kills on a recovery-armed TX testbed for the
// recovery layer metrics, then times worker respawns on it. It stays well
// below the number of recoveries one boot survives on a leaking DMA arena;
// the recover workload is the one that runs the full schedule.
func replayRecovery(o options, base time.Time, tr *tracer, l layerSet) error {
	r, err := bootWarmNet(netConfig{seed: o.seed, recovery: true}, base)
	if err != nil {
		return err
	}
	defer r.close()
	s0 := r.tb.Sup.Stats()
	r.tr = tr
	n := r.scheduleKills(o.seed, replayKills, 600, 1000, 500)
	r.run(0, n)
	r.settle()
	r.tr = nil
	l.recoveryStats(r, s0, r.tb.Sup.Stats())
	if r.failStop || r.outages.n != replayKills {
		return fmt.Errorf("recovery replay: %d of %d kills recovered (fail-stop %v)", r.outages.n, replayKills, r.failStop)
	}
	return l.respawn(tr, r.pt)
}

// runPCMCtl: closed-loop track changes on one open playback stream.
func runPCMCtl(o options) (*result, error) {
	base := time.Now()
	res := &result{workload: o.workload}
	boot := func() (*pcmRig, error) { return bootWarmPCM(o.seed, base) }
	if o.trace {
		rig, err := boot()
		if err != nil {
			return nil, err
		}
		defer rig.close()
		rig.run(steadyTime, 0)
		a := rig.snap()
		l, tr, err := tracedWindow(o, rig.tb.Runtime, rig.pt, base, "cycles", rig.run, func(t *tracer) { rig.tr = t })
		if err != nil {
			return nil, err
		}
		b := rig.snap()
		res.fail(rig.check(a, b))
		res.attempted, res.failed = b.cycles-a.cycles, b.failed-a.failed
		l.pcmSpans(tr)
		payloads := make([][]byte, len(rig.rates))
		for i, rate := range rig.rates {
			payloads[i] = binary.LittleEndian.AppendUint32(nil, uint32(rate))
		}
		trigger := [][]byte{{1}, {0}}
		if err := l.crossChunk(tr, rig.ctx, rig.tb.Runtime, rig.pt, "snd_ens1371_hw_params", payloads); err != nil {
			return nil, err
		}
		if err := l.codec(tr, "snd_ens1371_trigger", trigger); err != nil {
			return nil, err
		}
		if err := l.dispatch(tr, "snd_ens1371_trigger", trigger); err != nil {
			return nil, err
		}
		nr, _, err := replayNet(o, base, tr)
		if err != nil {
			return nil, err
		}
		nr.close()
		l.netSpans(tr)
		return res, finishTraced(o, tr, l, res, replayRecovery(o, base, tr, l))
	}
	setup, err := setupSeconds(boot)
	if err != nil {
		return nil, err
	}
	var rss rssPeak
	var cycAll, trigAll hist
	var done uint64
	var timed time.Duration
	for j := 0; j < rigsPerRun; j++ {
		rig, err := boot()
		if err != nil {
			return nil, err
		}
		rig.run(steadyTime, 0)
		a := rig.snap()
		rig.resetHists()
		_, el := rig.run(seconds(o.seconds/rigsPerRun), 0)
		rss.sample(rig.pt.WorkerPID())
		b := rig.snap()
		res.fail(rig.check(a, b))
		res.attempted += b.cycles - a.cycles
		res.failed += b.failed - a.failed
		done += (b.cycles - a.cycles) - (b.failed - a.failed)
		timed += el
		cycAll.merge(&rig.cycleLat)
		trigAll.merge(&rig.trigLat)
		rig.close()
	}
	cyc, trig := "Configure+Start+Stop", "Start+Stop"
	res.add(metric{name: "ops_per_s", unit: "1/s", value: float64(done) / timed.Seconds(),
		note: fmt.Sprintf("wall-clock track-change cycles per second over %d testbeds", rigsPerRun)})
	res.metrics = append(res.metrics, latency(&cycAll, "lat_p50_us", "lat_p99_us", cyc)...)
	res.metrics = append(res.metrics, latency(&trigAll, "lat2_p50_us", "lat2_p99_us", trig)...)
	res.report = append(res.report, latency(&cycAll, "ctl_cycle_p50_us", "ctl_cycle_p99_us", cyc)...)
	res.common(setup, rss)
	res.correct = len(res.problems) == 0
	return res, nil
}

// runRecover: the recovery-armed TX testbed through the whole seeded kill
// schedule on one boot.
func runRecover(o options) (*result, error) {
	base := time.Now()
	res := &result{workload: o.workload}
	cfg := netConfig{seed: o.seed, recovery: true}
	boot := func() (*netRig, error) { return bootWarmNet(cfg, base) }
	var setup float64
	if !o.trace {
		var err error
		if setup, err = setupSeconds(boot); err != nil {
			return nil, err
		}
	}
	rig, err := boot()
	if err != nil {
		return nil, err
	}
	defer rig.close()
	var tr *tracer
	var lw layerWindow
	if o.trace {
		tr = newTracer(base)
		if lw, err = openLayerWindow(tr, rig.tb.Runtime, rig.pt); err != nil {
			return nil, err
		}
		rig.tr = tr
	}
	a := rig.snap()
	rig.resetHists()
	total := rig.scheduleKills(o.seed, killCount, killGapMin, killGapMax, killTail)
	n, el := rig.run(seconds(o.seconds), total)
	rig.settle()
	rig.tr = nil
	b := rig.snap()
	res.fail(rig.check(a, b))
	// Frames the schedule still held when the time ran out were never
	// offered; they count as failed.
	res.netTotals(a, b, total-n)
	if o.trace {
		l := layerSet{}
		if err := lw.close(tr, l, n, "frames"); err != nil {
			return nil, err
		}
		l.recoveryStats(rig, a.sup, b.sup)
		if err := netLayers(tr, l, rig); err != nil {
			return nil, err
		}
		// The RX layer and the tracing overhead come from a duplex replay:
		// an untraced and a traced pass of equal length.
		nr, elU, err := replayNet(o, base, nil)
		if err != nil {
			return nil, err
		}
		defer nr.close()
		nr.tr = tr
		_, elT := nr.run(0, replayNetSteps)
		nr.tr = nil
		l.netSpans(tr)
		l.overhead(replayNetSteps/elU.Seconds(), replayNetSteps/elT.Seconds(), "frame steps")
		if err := replayPCM(o, base, tr, l); err != nil {
			return nil, err
		}
		return res, finishTraced(o, tr, l, res, l.respawn(tr, nr.pt))
	}
	fps := float64(b.txWire-a.txWire) / el.Seconds()
	res.add(metric{name: "ops_per_s", unit: "1/s", value: fps, note: "recover_fps"})
	res.note(metric{name: "recover_fps", unit: "1/s", value: fps,
		note: fmt.Sprintf("wall-clock, frames reaching hardware per second over %.3fs, outages included", el.Seconds())})
	res.metrics = append(res.metrics, latency(&rig.txLat, "lat_p50_us", "lat_p99_us", "Transmit to wire, held frames included")...)
	res.metrics = append(res.metrics, latency(&rig.outages, "lat2_p50_us", "lat2_p99_us", "kill to monitoring")...)
	om, ok := rig.outages.median()
	res.note(metric{name: "outage_p50_ms", unit: "ms", value: om / 1e6, null: !ok,
		note: fmt.Sprintf("wall-clock kill until the supervisor is back in monitoring, n=%d", rig.outages.n)})
	res.note(metric{name: "recoveries", unit: "count", value: float64(b.sup.Recoveries - a.sup.Recoveries),
		note: fmt.Sprintf("of %d kills; fail-stops %d, failed restarts %d", rig.killN,
			b.sup.FailStops-a.sup.FailStops, b.sup.FailedRestarts-a.sup.FailedRestarts)})
	rig.rss.sample(rig.pt.WorkerPID())
	res.common(setup, rig.rss)
	res.correct = len(res.problems) == 0
	return res, nil
}

package main

import (
	"fmt"
	"time"

	"decafdrivers/internal/hw/e1000hw"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/knet"
	"decafdrivers/internal/recovery"
	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// procBatch is the proc transport's coalescing size in every workload.
const procBatch = 32

// warmSteps settles lane claims, first-touch shm pages and every payload
// ring slot (256 by default) several times over before a timed window.
const warmSteps = 1024

// peerMAC is the far end of the simulated wire.
var peerMAC = [6]byte{0x00, 0x99, 0x88, 0x77, 0x66, 0x55}

// netRig is one booted e1000 testbed driven by a closed loop: each step
// makes one Transmit and (duplex) one InjectRx, advances the virtual clock
// by the wire time at 1 Gb/s and drains deferred work.
type netRig struct {
	tb     *workload.Testbed
	pt     *xpc.ProcTransport
	nd     *knet.NetDevice
	dev    *e1000hw.Device
	ctx    *kernel.Context
	duplex bool
	base   time.Time
	tr     *tracer

	txPool, rxPool *framePool
	txPkts         [poolSize]knet.Packet
	txSubmit       [poolSize]int64
	rxSubmit       [poolSize]int64

	txSeq, rxSeq uint64 // next sequence number to offer
	txAccepted   uint64
	txRefused    uint64
	rxRefused    uint64
	txWire       uint64 // frames seen leaving the adapter
	lastWireSeq  int64
	rxGot        uint64 // frames at the RX sink (= next expected RX seq)
	rxGotBytes   uint64
	rxSentBytes  uint64

	txLat, rxLat hist // reset per sub-window

	mismatches uint64
	firstBad   string
	corrupt    bool

	// Recovery (recover workload only).
	kills    []uint64
	nextKill int
	out      *outage
	outages  hist // kill until back in monitoring, ns
	detects  hist
	restores hist
	killN    uint64
	failStop bool
	heldPeak int
	rss      rssPeak
}

// outage tracks one kill until the supervisor is back in monitoring.
type outage struct {
	id                   uint64
	killStart, killEnd   int64
	detected             int64
	faults0, recoveries0 uint64
}

// corruptSeq is the RX frame a corrupting rig damages on delivery.
const corruptSeq = 7

// netConfig selects the testbed shape.
type netConfig struct {
	seed     uint64
	duplex   bool
	recovery bool
	corrupt  bool // deliberately damage one RX frame (output-check test)
}

func bootNet(cfg netConfig, base time.Time) (*netRig, error) {
	opts := workload.NetOptions{
		DataPath: xpc.DataPathDecaf, BatchN: procBatch, Proc: true, ZeroCopy: true,
		Recovery: cfg.recovery,
	}
	tb, err := workload.NewE1000With(xpc.ModeDecaf, opts)
	if err != nil {
		return nil, fmt.Errorf("boot e1000: %w", err)
	}
	pt, ok := tb.Runtime.Transport().(*xpc.ProcTransport)
	if !ok {
		tb.Shutdown()
		return nil, fmt.Errorf("boot e1000: transport is %T, want proc", tb.Runtime.Transport())
	}
	r := &netRig{
		tb: tb, pt: pt, nd: tb.E1000.NetDevice(), dev: tb.E1000Dev,
		ctx: tb.Kernel.NewContext("perfbench-net"), duplex: cfg.duplex, base: base,
		lastWireSeq: -1,
	}
	r.txPool = newFramePool(newRand(cfg.seed, 1), peerMAC, r.nd.MAC)
	r.rxPool = newFramePool(newRand(cfg.seed, 2), r.nd.MAC, peerMAC)
	for i := range r.txPkts {
		r.txPkts[i].Protocol = 0x0800
	}
	r.corrupt = cfg.corrupt
	r.dev.OnTransmit = r.onWire
	r.nd.SetRxSink(r.onRx)
	return r, nil
}

func (r *netRig) now() int64 { return int64(time.Since(r.base)) }

func (r *netRig) bad(format string, args ...any) {
	r.mismatches++
	if r.firstBad == "" {
		r.firstBad = fmt.Sprintf(format, args...)
	}
}

// onWire observes every frame the adapter puts on the wire: it must be a
// frame the harness transmitted, intact, in order.
func (r *netRig) onWire(frame []byte) {
	t := r.now()
	seq := frameSeq(frame)
	r.txWire++
	if seq >= r.txSeq || int64(seq) <= r.lastWireSeq || !r.txPool.matches(seq, frame) {
		r.bad("tx: wire frame %d (len %d) is not the next transmitted frame", seq, len(frame))
		return
	}
	r.lastWireSeq = int64(seq)
	r.txLat.add(uint64(t - r.txSubmit[seq%poolSize]))
}

// onRx is the protocol-layer sink: frames must arrive exactly as injected,
// in order.
func (r *netRig) onRx(p *knet.Packet) {
	t := r.now()
	seq := r.rxGot
	data := p.Data
	if r.corrupt && seq == corruptSeq {
		data = append([]byte(nil), data...)
		data[len(data)-1] ^= 0xFF
	}
	if !r.rxPool.matches(seq, data) {
		r.bad("rx: frame %d at the sink differs from the injected frame (got seq %d, len %d)", seq, frameSeq(p.Data), len(p.Data))
	}
	r.rxGot++
	r.rxGotBytes += uint64(len(p.Data))
	r.rxLat.add(uint64(t - r.rxSubmit[seq%poolSize]))
}

// step runs one closed-loop step.
func (r *netRig) step() {
	tr := r.tr
	seq := r.txSeq
	if r.out == nil && !r.failStop && r.nextKill < len(r.kills) && seq >= r.kills[r.nextKill] {
		r.nextKill++
		r.kill()
	}
	tr.begin(spNetStep, seq)

	pkt := &r.txPkts[seq%poolSize]
	pkt.Data = r.txPool.stamp(seq)
	wire := len(pkt.Data)
	r.txSubmit[seq%poolSize] = r.now()
	r.txSeq++
	tr.begin(spTransmit, seq)
	err := r.nd.Transmit(r.ctx, pkt)
	tr.end()
	if err != nil {
		r.txRefused++
	} else {
		r.txAccepted++
	}
	r.pollOutage()

	if r.duplex {
		f := r.rxPool.stamp(r.rxSeq)
		r.rxSubmit[r.rxSeq%poolSize] = r.now()
		tr.begin(spInjectRx, seq)
		ok := r.dev.InjectRx(f)
		tr.end()
		if ok {
			r.rxSeq++
			r.rxSentBytes += uint64(len(f))
		} else {
			r.rxRefused++
		}
		wire = max(wire, len(f))
	}

	tr.begin(spAdvance, seq)
	r.tb.Clock.Advance(wireTime(wire))
	tr.end()
	tr.begin(spDrain, seq)
	r.tb.Sys.DrainDeferredWork()
	tr.end()
	r.pollOutage()
	tr.end()
}

// run steps until d has elapsed or limit steps have run (0: no limit).
func (r *netRig) run(d time.Duration, limit uint64) (steps uint64, elapsed time.Duration) {
	start := time.Now()
	for limit == 0 || steps < limit {
		r.step()
		steps++
		if steps%16 == 0 && d > 0 && time.Since(start) >= d {
			break
		}
	}
	return steps, time.Since(start)
}

// settle flushes the partial TX queue and every in-flight crossing, so all
// accepted frames have reached the wire (or been dropped with accounting).
func (r *netRig) settle() {
	r.tb.Settle(r.ctx)
	r.pollOutage()
}

// resetHists starts a new (sub-)window's latency histograms; a frame in
// flight across the reset is timed in the window it completes in.
func (r *netRig) resetHists() { r.txLat, r.rxLat = hist{}, hist{} }

// netSnap holds the counters the output checks compare across a window.
type netSnap struct {
	txSeq, txAccepted, txRefused, rxSeq, rxRefused uint64
	txWire, rxGot, rxGotBytes, rxSentBytes         uint64
	hwTx, hwRx                                     uint64
	decafTx, decafRx                               uint64
	adapterTxErrors                                uint64
	xpc                                            xpc.Counters
	nd                                             knet.Stats
	sup                                            recovery.Stats
}

func (r *netRig) snap() netSnap {
	s := netSnap{
		txSeq: r.txSeq, txAccepted: r.txAccepted, txRefused: r.txRefused, rxSeq: r.rxSeq, rxRefused: r.rxRefused,
		txWire: r.txWire, rxGot: r.rxGot, rxGotBytes: r.rxGotBytes, rxSentBytes: r.rxSentBytes,
		decafTx: r.tb.E1000.DecafTxFrames(), decafRx: r.tb.E1000.DecafRxFrames(),
		xpc: r.tb.Runtime.Counters(), nd: r.nd.Stats(),
		adapterTxErrors: r.tb.E1000.Adapter.Stats.TxErrors,
	}
	s.hwTx, _, s.hwRx, _, _ = r.dev.Counters()
	if r.tb.Sup != nil {
		s.sup = r.tb.Sup.Stats()
	}
	return s
}

// check compares a settled window's counters; it returns one line per
// failed check.
func (r *netRig) check(a, b netSnap) []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if r.mismatches > 0 {
		fail("%d frames differed from what was sent; first: %s", r.mismatches, r.firstBad)
	}
	accepted := b.txAccepted - a.txAccepted
	hwTx := b.hwTx - a.hwTx
	dropped := dropped(a, b)
	if hwTx+dropped != accepted || b.txWire-a.txWire != hwTx {
		fail("tx: hardware sent %d frames (+%d dropped with accounting), wire saw %d, Transmit accepted %d",
			hwTx, dropped, b.txWire-a.txWire, accepted)
	}
	if d := b.decafTx - a.decafTx; d != accepted-dropped {
		fail("tx: DecafTxFrames moved %d, Transmit accepted %d, dropped %d", d, accepted, dropped)
	}
	injected := b.rxSeq - a.rxSeq
	if got := b.rxGot - a.rxGot; got != injected || b.rxGotBytes-a.rxGotBytes != b.rxSentBytes-a.rxSentBytes {
		fail("rx: sink got %d frames/%d bytes, injected %d frames/%d bytes",
			got, b.rxGotBytes-a.rxGotBytes, injected, b.rxSentBytes-a.rxSentBytes)
	}
	if d := b.decafRx - a.decafRx; d != injected {
		fail("rx: DecafRxFrames moved %d, injected %d", d, injected)
	}
	if hw := b.hwRx - a.hwRx; hw != injected {
		fail("rx: hardware received %d frames, injected %d", hw, injected)
	}
	handlerCalls := (accepted - dropped) + injected
	if served := b.xpc.WorkerServedCalls - a.xpc.WorkerServedCalls; served < handlerCalls {
		fail("xpc: worker served %d calls, harness issued %d handler calls", served, handlerCalls)
	}
	if b.nd.TxHeld-a.nd.TxHeld != (b.nd.TxReplayed-a.nd.TxReplayed)+(b.nd.TxHeldDropped-a.nd.TxHeldDropped) {
		fail("knet: held %d frames, replayed %d, dropped %d", b.nd.TxHeld-a.nd.TxHeld,
			b.nd.TxReplayed-a.nd.TxReplayed, b.nd.TxHeldDropped-a.nd.TxHeldDropped)
	}
	return errs
}

// dropped counts accepted frames that were dropped with accounting instead
// of reaching the wire: frames of a flush that faulted or was queued when
// the worker died (the adapter's TX error counter), and held frames the
// recovery proxy gave up on.
func dropped(a, b netSnap) uint64 {
	return (b.adapterTxErrors - a.adapterTxErrors) + (b.nd.TxHeldDropped - a.nd.TxHeldDropped)
}

func (r *netRig) close() {
	if r.tb.Sup != nil {
		r.tb.Sup.Detach()
	}
	r.nd.SetRxSink(nil)
	r.tb.Shutdown()
}

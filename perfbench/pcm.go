package main

import (
	"fmt"
	"time"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/ksound"
	"decafdrivers/internal/workload"
	"decafdrivers/internal/xpc"
)

// PCM stream shape for every track change: stereo, 1024-frame periods.
const (
	pcmChannels     = 2
	pcmPeriodFrames = 1024
	pcmRateCount    = 1024 // seeded rates, cycled
	warmCycles      = 64
	// trackGap is the virtual time that passes between track changes. It
	// is longer than any period at these rates (1024/22050 s), so the
	// period timer Start arms and Stop cancels falls due before the next
	// cycle: the clock drops a cancelled timer only when it falls due, and
	// with a frozen clock the testbed's timer heap and memory would grow
	// with every cycle.
	trackGap = 50 * time.Millisecond
)

// pcmRig is one booted ens1371 testbed with an open playback stream,
// driven through closed-loop track changes: Configure at a seeded rate,
// Start, Stop, then trackGap of virtual time.
type pcmRig struct {
	tb    *workload.Testbed
	pt    *xpc.ProcTransport
	st    *ksound.Substream
	ctx   *kernel.Context
	base  time.Time
	tr    *tracer
	rates []int

	cycles   uint64 // cycles attempted
	failed   uint64
	triggers uint64 // trigger handler calls issued
	cycleLat hist
	trigLat  hist

	mismatches uint64
	firstBad   string
}

func bootPCM(seed uint64, base time.Time) (*pcmRig, error) {
	tb, err := workload.NewEns1371(xpc.ModeDecaf)
	if err != nil {
		return nil, fmt.Errorf("boot ens1371: %w", err)
	}
	pt, err := xpc.NewProcTransport(xpc.ProcConfig{Batch: procBatch})
	if err != nil {
		tb.Shutdown()
		return nil, fmt.Errorf("boot ens1371: %w", err)
	}
	tb.Runtime.SetTransport(pt)
	r := &pcmRig{tb: tb, pt: pt, ctx: tb.Kernel.NewContext("perfbench-pcm"), base: base,
		rates: rateSchedule(newRand(seed, 3), pcmRateCount)}
	card, ok := tb.Snd.Card("ens1371")
	if !ok {
		r.close()
		return nil, fmt.Errorf("boot ens1371: no sound card registered")
	}
	if r.st, err = card.OpenPlayback(r.ctx); err != nil {
		r.close()
		return nil, fmt.Errorf("boot ens1371: open playback: %w", err)
	}
	tb.Ens.AttachStream(r.st)
	return r, nil
}

func (r *pcmRig) now() int64 { return int64(time.Since(r.base)) }

func (r *pcmRig) bad(format string, args ...any) {
	r.mismatches++
	if r.firstBad == "" {
		r.firstBad = fmt.Sprintf(format, args...)
	}
}

// cycle runs one track change and checks the device state after each call.
func (r *pcmRig) cycle() {
	tr := r.tr
	id := r.cycles
	rate := r.rates[id%uint64(len(r.rates))]
	r.cycles++
	tr.begin(spPCMCycle, id)
	t0 := r.now()
	tr.begin(spConfigure, id)
	errC := r.st.Configure(r.ctx, rate, pcmChannels, pcmPeriodFrames)
	tr.end()
	t1 := r.now()
	tr.begin(spStart, id)
	errS := r.st.Start(r.ctx)
	tr.end()
	running := r.tb.Ens.DAC2Running() && r.tb.Ens.Chip.Running
	tr.begin(spStop, id)
	errT := r.st.Stop(r.ctx)
	tr.end()
	t3 := r.now()
	tr.begin(spTrackGap, id)
	r.tb.Clock.Advance(trackGap)
	tr.end()
	tr.end()
	r.triggers += 2
	if errC != nil || errS != nil || errT != nil {
		r.failed++
		return
	}
	r.cycleLat.add(uint64(t3 - t0))
	r.trigLat.add(uint64(t3 - t1))
	dev := r.tb.EnsDev
	if got0, got1 := dev.SRCReg(0x70), dev.SRCReg(0x71); got0 != uint16(rate) || got1 != uint16(rate/2) {
		r.bad("pcm: cycle %d configured %d Hz, SRC holds %d/%d", id, rate, got0, got1)
	}
	if !running {
		r.bad("pcm: cycle %d: engine not running after Start", id)
	}
	if r.tb.Ens.DAC2Running() || r.tb.Ens.Chip.Running || r.st.Running() {
		r.bad("pcm: cycle %d: engine still running after Stop", id)
	}
}

// run cycles until d has elapsed or limit cycles have run (0: no limit).
func (r *pcmRig) run(d time.Duration, limit uint64) (n uint64, elapsed time.Duration) {
	start := time.Now()
	for limit == 0 || n < limit {
		r.cycle()
		n++
		if d > 0 && n%4 == 0 && time.Since(start) >= d {
			break
		}
	}
	return n, time.Since(start)
}

// resetHists starts a new sub-window's latency histograms.
func (r *pcmRig) resetHists() {
	r.cycleLat, r.trigLat = hist{}, hist{}
}

// pcmSnap holds the counters the output checks compare across a window.
type pcmSnap struct {
	cycles, failed, triggers uint64
	xpc                      xpc.Counters
}

func (r *pcmRig) snap() pcmSnap {
	return pcmSnap{cycles: r.cycles, failed: r.failed, triggers: r.triggers, xpc: r.tb.Runtime.Counters()}
}

func (r *pcmRig) check(a, b pcmSnap) []string {
	var errs []string
	if r.mismatches > 0 {
		errs = append(errs, fmt.Sprintf("%d device-state mismatches; first: %s", r.mismatches, r.firstBad))
	}
	issued := b.triggers - a.triggers
	if served := b.xpc.WorkerServedCalls - a.xpc.WorkerServedCalls; served < issued {
		errs = append(errs, fmt.Sprintf("xpc: worker served %d calls, harness issued %d trigger handler calls", served, issued))
	}
	return errs
}

func (r *pcmRig) close() {
	if r.st != nil {
		_ = r.st.Close(r.ctx) // the testbed is discarded either way
	}
	r.tb.Shutdown()
}

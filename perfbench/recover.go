package main

import (
	"decafdrivers/internal/recovery"
)

// The recover workload's kill schedule: killCount kills, each after a
// seeded gap of killGapMin..killGapMax frames, then killTail more frames.
// The schedule is fixed by the seed, not by how fast the machine is, and it
// is never shortened or split across boots: on a tree whose DMA arena leaks
// a replayed ifup per recovery, a late recovery fail-stops and every frame
// scheduled after it counts as failed.
const (
	killCount  = 20
	killGapMin = 40000
	killGapMax = 60000
	killTail   = 8000
)

// kill SIGKILLs the worker process behind the transport's back and opens
// an outage that pollOutage closes once the supervisor is monitoring again.
func (r *netRig) kill() {
	r.killN++
	r.rss.sample(r.pt.WorkerPID())
	st := r.tb.Sup.Stats()
	o := &outage{id: r.killN, faults0: st.Faults, recoveries0: st.Recoveries}
	o.killStart = r.now()
	r.pt.KillWorker()
	o.killEnd = r.now()
	r.out = o
}

// pollOutage follows an open outage from the outside: detection is the
// supervisor counting the fault, the end is the supervisor back in
// monitoring (or fail-stopped).
func (r *netRig) pollOutage() {
	o := r.out
	if o == nil {
		return
	}
	r.heldPeak = max(r.heldPeak, r.nd.HeldTx())
	st := r.tb.Sup.Stats()
	t := r.now()
	if o.detected == 0 && st.Faults > o.faults0 {
		o.detected = t
	}
	switch {
	case st.State == recovery.StateFailed:
		r.failStop = true
		r.endOutage(t, false)
	case o.detected != 0 && st.State == recovery.StateMonitoring && st.Recoveries > o.recoveries0:
		r.endOutage(t, true)
	}
}

func (r *netRig) endOutage(t int64, recovered bool) {
	o := r.out
	r.out = nil
	if recovered {
		r.outages.add(uint64(t - o.killStart))
		r.detects.add(uint64(o.detected - o.killEnd))
		r.restores.add(uint64(t - o.detected))
	}
	if r.tr == nil {
		return
	}
	root := r.tr.interval(spOutage, o.id, -1, o.killStart, t, t-o.killStart)
	r.tr.interval(spKillWorker, o.id, root, o.killStart, o.killEnd, 0)
	if o.detected != 0 {
		r.tr.interval(spDetect, o.id, root, o.killEnd, o.detected, 0)
		r.tr.interval(spRestore, o.id, root, o.detected, t, 0)
	}
}

// scheduleKills arms the seeded kill schedule and returns the number of
// frames the schedule covers.
func (r *netRig) scheduleKills(seed uint64, kills, gapMin, gapMax, tail int) uint64 {
	r.kills = killSchedule(newRand(seed, 4), kills, gapMin, gapMax)
	for i := range r.kills {
		r.kills[i] += r.txSeq
	}
	r.nextKill = 0
	return r.kills[len(r.kills)-1] - r.txSeq + uint64(tail)
}

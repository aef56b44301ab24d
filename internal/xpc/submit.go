package xpc

import (
	"errors"
	"sync/atomic"
	"time"

	"decafdrivers/internal/kernel"
	"decafdrivers/internal/trace"
)

// Submission errors. Completions resolved on a failure path carry one of
// these (or the call's own error) so waiters always learn the outcome.
var (
	// ErrCrossingAborted resolves a submission that never executed because
	// an earlier call in the same flush failed or faulted.
	ErrCrossingAborted = errors.New("xpc: crossing aborted by earlier failure")
	// ErrQueueFull is the fail-fast backpressure outcome: the async
	// submission ring had no free slot.
	ErrQueueFull = errors.New("xpc: async submission ring full")
	// ErrTransportClosed resolves submissions still queued when an async
	// transport shuts down, and rejects submissions after Close.
	ErrTransportClosed = errors.New("xpc: transport closed")
	// ErrTransportBound rejects a Submit through an AsyncTransport already
	// serving a different runtime (the service goroutine, queue and service
	// context are per-runtime state).
	ErrTransportBound = errors.New("xpc: async transport already bound to another runtime")
)

// Submission is one crossing request in flight through a Transport: the Call
// to deliver plus the Completion handle the caller observes it through.
// Transports resolve every admitted submission's Completion exactly once —
// with the call's result, or with a queue/abort error if it never ran.
type Submission struct {
	// Call is the crossing request.
	Call *Call
	// Completion is the observable outcome. Runtime.Admit populates it when
	// nil and binds it to the runtime; callers that need the handle before
	// submitting may create it via Runtime.NewSubmission.
	Completion *Completion
}

// NewSubmission wraps a call with a fresh Completion handle bound to this
// runtime.
func (r *Runtime) NewSubmission(c *Call) *Submission {
	return &Submission{Call: c, Completion: &Completion{name: c.Name, up: c.Up, r: r}}
}

// callRecord is one call in flight — its Call, the Submission carrying it
// and the Completion it resolves — in a single allocation. one is the
// single-element list a blocking call hands to Transport.Submit.
//
// A Batch draws its records from the runtime's free list and recycles each
// once its completion has been read, so a handler flush allocates nothing
// per call. A blocking call (Upcall, Downcall, UpcallHandler) takes a fresh
// record and leaves it to the collector: recycling those as well removes
// most of the control path's garbage, collections then become rare enough
// that machines discarded in sequence keep their DMA arenas resident
// longer, and peak RSS of a rebooted ens1371 control loop rose by a quarter
// (2 vCPUs, go1.24).
type callRecord struct {
	call Call
	sub  Submission
	comp Completion
	one  [1]*Submission
}

// maxFreeRecords bounds a runtime's free list, so a burst of calls through
// one Batch does not stay pinned after it.
const maxFreeRecords = 1024

// newCallRecord returns a fresh record, wired so its Submission carries its
// own Call and Completion.
func newCallRecord() *callRecord {
	return new(callRecord).wire()
}

func (rec *callRecord) wire() *callRecord {
	rec.sub = Submission{Call: &rec.call, Completion: &rec.comp}
	rec.one[0] = &rec.sub
	return rec
}

// takeRecord returns a cleared record from the runtime's free list, or a
// fresh one.
func (r *Runtime) takeRecord() *callRecord {
	r.freeMu.Lock()
	rec := popFree(&r.freeRecords)
	r.freeMu.Unlock()
	if rec == nil {
		return newCallRecord()
	}
	return rec.wire()
}

// popFree removes and returns the last entry of a free list, nil when it is
// empty. The caller holds the runtime's freeMu.
func popFree[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	v := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return v
}

// recycleRecords clears records, so the free list pins no payloads or
// closures, and returns them to the runtime's free list. The caller must
// have seen each record's completion resolve (or never submitted it). That
// is enough because resolving a Completion is a transport's last touch of
// its submission: Completion.resolve snapshots what its fault notifier
// needs before publishing, and no transport reads a submission after
// resolving it.
func (r *Runtime) recycleRecords(recs ...*callRecord) {
	r.freeMu.Lock()
	for _, rec := range recs {
		*rec = callRecord{}
		if len(r.freeRecords) < maxFreeRecords {
			r.freeRecords = append(r.freeRecords, rec)
		}
	}
	r.freeMu.Unlock()
}

// FaultEvent describes one contained decaf-side fault, delivered to the
// runtime's fault notifier (SetFaultNotifier) as the faulted submission's
// Completion resolves. A recovery supervisor treats it as the crash signal:
// the kernel survived, the call failed, and the decaf driver is suspect.
type FaultEvent struct {
	// Call is the entry point whose body faulted.
	Call string
	// Up reports the crossing direction (true for upcalls).
	Up bool
	// Err is the *UserFault the completion resolved with.
	Err error
	// At is the virtual instant the faulted crossing completed.
	At time.Duration
}

// Completion is the handle for one submitted crossing. It resolves exactly
// once, carrying the call's result (error or contained fault), its cost
// split into queue wait and crossing time, and the virtual-clock instant the
// crossing completed at. All accessors except Done and Settled block until
// the completion resolves.
//
// Virtual completion time: an asynchronous transport executes the decaf side
// on its own timeline, so a submission completes at a definite virtual
// instant (submit time + queue wait + crossing cost) that may lie in the
// caller's future. Wait charges the waiting context only the portion of that
// latency not already hidden by work the caller did in the meantime — the
// §4.2 overlap the submit/complete split exists to expose.
type Completion struct {
	name string
	up   bool
	r    *Runtime

	// waiter is nil while the completion is pending and nobody waits, a
	// waiter's channel once one has to block (Done, or a wait before
	// resolution), and &resolvedMark once resolved. Resolution swaps the
	// mark in as its last touch of the completion and then closes any
	// channel it displaced, so a completion resolved before anyone waits
	// never makes a channel, and a waiter that sees the mark may recycle
	// the completion at once.
	waiter atomic.Pointer[chan struct{}]

	// Resolved fields, written exactly once before resolution publishes
	// them and immutable after.
	err        error
	fault      bool
	queueWait  time.Duration
	crossCost  time.Duration
	completeAt time.Duration

	submitClock time.Duration
}

// resolvedMark is the waiter value of a resolved completion: the channel
// Done hands out once nothing is left to wait for.
var resolvedMark = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// newSettledCompletion returns an already-resolved completion (empty
// flushes).
func newSettledCompletion(r *Runtime, name string, err error, at time.Duration) *Completion {
	c := &Completion{name: name, r: r, err: err, completeAt: at}
	c.waiter.Store(&resolvedMark)
	return c
}

// isResolved reports, without blocking, whether the completion resolved.
func (c *Completion) isResolved() bool { return c.waiter.Load() == &resolvedMark }

// publish marks the completion resolved and wakes any blocked waiter. Every
// resolved field must be written before it, and the swap is its last touch
// of c.
func (c *Completion) publish() {
	if w := c.waiter.Swap(&resolvedMark); w != nil {
		close(*w)
	}
}

// wait blocks until the completion resolves.
func (c *Completion) wait() {
	if !c.isResolved() {
		<-c.Done()
	}
}

// resolve publishes the outcome. queueWait and completeAt must already be
// stamped by the transport; crossCost is this call's share of the crossing.
// A fault outcome is additionally delivered to the runtime's fault notifier
// after publication, from a snapshot: once published, the completion may
// already be recycled by its waiter.
func (c *Completion) resolve(err error, fault bool, crossCost time.Duration) {
	c.err = err
	c.fault = fault
	c.crossCost = crossCost
	r := c.r
	var ev FaultEvent
	if r != nil {
		r.noteCompletion(c.name, c.queueWait, crossCost, fault)
		r.inFlight.Add(-1)
		ev = FaultEvent{Call: c.name, Up: c.up, Err: err, At: c.completeAt}
	}
	c.publish()
	if fault && r != nil {
		if fp := r.faultNotifier.Load(); fp != nil {
			(*fp)(ev)
		}
	}
}

// fanIn resolves the aggregate p once every child has: it carries the first
// error in submission order, any fault, the largest queue wait, the
// combined crossing cost and the latest virtual completion instant. Reading
// a child is the last use of its record, so fanIn then recycles them.
// Transports guarantee every child resolves, so fanIn always returns.
func fanIn(r *Runtime, p *Completion, children []*callRecord) {
	for _, rec := range children {
		ch := &rec.comp
		ch.wait()
		if p.err == nil {
			p.err = ch.err
		}
		p.fault = p.fault || ch.fault
		p.queueWait = max(p.queueWait, ch.queueWait)
		p.crossCost += ch.crossCost
		p.completeAt = max(p.completeAt, ch.completeAt)
	}
	r.recycleRecords(children...)
	p.publish()
}

// Done returns a channel closed when the completion resolves.
func (c *Completion) Done() <-chan struct{} {
	w := c.waiter.Load()
	if w == nil {
		ch := make(chan struct{})
		if c.waiter.CompareAndSwap(nil, &ch) {
			return ch
		}
		w = c.waiter.Load()
	}
	return *w
}

// Err blocks until the completion resolves and returns the call's error
// (nil, the call's own error, a *UserFault, or a queue/abort error).
func (c *Completion) Err() error {
	c.wait()
	return c.err
}

// Faulted blocks until resolution and reports whether the decaf side
// panicked: the fault was contained and failed only this completion.
func (c *Completion) Faulted() bool {
	c.wait()
	return c.fault
}

// QueueWait blocks until resolution and reports the virtual time the
// submission waited behind earlier work before its crossing started.
func (c *Completion) QueueWait() time.Duration {
	c.wait()
	return c.queueWait
}

// CrossLatency blocks until resolution and reports this call's share of the
// crossing's virtual cost (transition, marshaling, execution).
func (c *Completion) CrossLatency() time.Duration {
	c.wait()
	return c.crossCost
}

// Latency blocks until resolution and reports queue wait plus crossing cost.
func (c *Completion) Latency() time.Duration {
	c.wait()
	return c.queueWait + c.crossCost
}

// CompleteAt blocks until resolution and reports the virtual-clock instant
// the crossing completed. Inline transports complete at submit time (the
// cost was already charged to the submitter); async transports complete in
// the caller's future.
func (c *Completion) CompleteAt() time.Duration {
	c.wait()
	return c.completeAt
}

// Settled reports, without blocking, whether the completion has resolved
// and its virtual completion instant has been reached at the given clock
// reading. Drivers poll this to reap async flushes at their due time.
func (c *Completion) Settled(now time.Duration) bool {
	return c.isResolved() && c.completeAt <= now
}

// Wait blocks until the completion resolves, charges ctx the caller-visible
// stall — the part of the completion's latency not yet covered by virtual
// time that passed since submission — and returns the call's error.
//
// Under an inline transport the crossing already charged the submitting
// context, so Wait charges nothing. Under an async transport a caller that
// waits immediately stalls the full latency (Upcall/Downcall sugar), while
// a caller that produced work in the meantime stalls only the remainder.
func (c *Completion) Wait(ctx *kernel.Context) error {
	c.wait()
	if ctx != nil && c.r != nil {
		c.r.chargeCatchUp(ctx, c.name, c.completeAt)
	}
	return c.err
}

// chargeCatchUp stalls ctx until the waiter's timeline reaches the virtual
// instant target: the portion of target beyond both the clock and the wait
// frontier is charged as sleep, recorded as caller-visible stall, and the
// frontier advances so consecutive waits on the same backlog each pay only
// the increment.
func (r *Runtime) chargeCatchUp(ctx *kernel.Context, name string, target time.Duration) {
	now := r.Kernel.Clock().Now()
	if f := r.waitFrontier(); f > now {
		now = f
	}
	if stall := target - now; stall > 0 {
		ctx.Sleep(stall)
		r.noteStall(name, stall)
		r.advanceWaitFrontier(target)
	}
}

// Admit prepares submissions for transport: it creates missing Completion
// handles, binds every handle to this runtime, stamps the submit instant, and bumps the submission counters and
// in-flight gauge. Every Transport implementation calls Admit before
// queueing or crossing; a transport must then resolve every admitted
// completion exactly once.
func (r *Runtime) Admit(subs []*Submission) {
	now := r.Kernel.Clock().Now()
	for _, sub := range subs {
		c := sub.Completion
		if c == nil {
			c = new(Completion)
			sub.Completion = c
		}
		c.name, c.up, c.r = sub.Call.Name, sub.Call.Up, r
		c.submitClock = now
		r.noteSubmission(sub.Call.Name)
		r.inFlight.Add(1)
	}
	if rec := r.tracer.Load(); rec != nil {
		rec.Emit(trace.KindSubmit, trace.LaneNone, trace.SrcKernel, 0, uint64(len(subs)))
	}
}

// waitFrontier is the latest virtual instant any waiter has already stalled
// to. Consecutive waits on an async backlog each charge only the additional
// catch-up, not the whole backlog again.
func (r *Runtime) waitFrontier() time.Duration {
	return time.Duration(r.frontier.Load())
}

// WaitFrontier reports the latest virtual instant a waiter has stalled to.
// Harnesses advance the global clock to it after initialization (probe,
// open) so the wall-clock time those waited-for crossings consumed is
// reflected before a measurement phase begins — otherwise an async
// transport's service timeline starts a phase ahead of the clock and the
// gap reads as phantom queue wait.
func (r *Runtime) WaitFrontier() time.Duration { return r.waitFrontier() }

func (r *Runtime) advanceWaitFrontier(t time.Duration) {
	for {
		cur := r.frontier.Load()
		if int64(t) <= cur || r.frontier.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

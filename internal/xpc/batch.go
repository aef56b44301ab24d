package xpc

import (
	"fmt"

	"decafdrivers/internal/decaf/registry"
	"decafdrivers/internal/kernel"
	"decafdrivers/internal/xdr"
)

// Batch accumulates crossing requests and submits them through the runtime's
// transport. Under a BatchTransport, queued calls coalesce into crossings of
// up to MaxBatch calls each, paying the kernel/user transition once per
// crossing; under the synchronous transport every queued call still crosses
// individually; under an AsyncTransport queued calls stream onto the
// submission ring and execute on the decaf-side goroutine. Driver code
// written against Batch is transport-agnostic.
//
// The builder auto-flushes whenever the queue reaches the transport's
// MaxBatch or the call direction changes (each crossing travels one
// direction), so a driver may stream an unbounded number of calls through
// one Batch. Errors known synchronously are sticky: after a call fails,
// subsequent adds are dropped and Flush returns the first error. Under an
// async transport errors surface through the completions instead — Flush
// still reports the first one, FlushAsync hands back the aggregate handle.
//
// In ModeNative each call runs immediately in the caller's context, exactly
// as Upcall/Downcall do.
type Batch struct {
	r   *Runtime
	ctx *kernel.Context
	err error
	// st holds the queued and outstanding calls. It is borrowed from the
	// runtime on the first add and handed back once Flush or FlushAsync
	// leaves the batch empty, so a driver that builds a Batch per flush
	// reuses the same buffers flush after flush.
	st *batchState
}

// batchState is a Batch's borrowed working set. Each call is a callRecord
// from the runtime's free list: the batch recycles it once its completion
// has been waited out (Flush) or read by the aggregate's fan-in
// (FlushAsync).
type batchState struct {
	// queued are added and not yet submitted.
	queued []*callRecord
	// outstanding were submitted by auto-flushes or the final flush and
	// await Flush or FlushAsync.
	outstanding []*callRecord
	// subs is the list handed to Transport.Submit, reused because Submit
	// does not retain it.
	subs []*Submission
}

// Batch starts a crossing batch bound to the calling context.
func (r *Runtime) Batch(ctx *kernel.Context) *Batch {
	return &Batch{r: r, ctx: ctx}
}

// maxFreeStates bounds a runtime's free list of Batch working sets, one per
// batch a driver keeps open at once.
const maxFreeStates = 64

// state returns the batch's working set, borrowing one on first use.
func (b *Batch) state() *batchState {
	if b.st == nil {
		b.r.freeMu.Lock()
		b.st = popFree(&b.r.freeStates)
		b.r.freeMu.Unlock()
		if b.st == nil {
			b.st = new(batchState)
		}
	}
	return b.st
}

// release hands the working set back to the runtime. Its lists must be
// empty: every record recycled or owned by a fan-in.
func (b *Batch) release() {
	st := b.st
	if st == nil {
		return
	}
	b.st = nil
	r := b.r
	r.freeMu.Lock()
	if len(r.freeStates) < maxFreeStates {
		r.freeStates = append(r.freeStates, st)
	}
	r.freeMu.Unlock()
}

// newCall returns a record from the runtime's free list whose Call carries
// the given fields; every other field is zeroed.
func (b *Batch) newCall(name string, up bool, fn func(ctx *kernel.Context) error, objs []any, data []byte, slot xdr.SlotDescriptor) *callRecord {
	rec := b.r.takeRecord()
	rec.call = Call{Name: name, Up: up, Fn: fn, Objs: objs, Data: data, Slot: slot}
	return rec
}

func (b *Batch) add(rec *callRecord) *Batch {
	if b.err != nil {
		b.r.recycleRecords(rec)
		return b
	}
	c := &rec.call
	if b.r.Mode == ModeNative {
		if c.h != nil {
			b.err = b.r.runHandlerNative(b.ctx, c)
		} else {
			b.err = c.Fn(b.ctx)
		}
		b.r.recycleRecords(rec)
		return b
	}
	st := b.state()
	// A crossing travels one direction: a direction change flushes the
	// queued calls first, so every batch is all-upcall or all-downcall.
	if len(st.queued) > 0 && st.queued[0].call.Up != c.Up {
		if err := b.submit(); err != nil {
			b.err = err
			b.r.recycleRecords(rec)
			return b
		}
	}
	st.queued = append(st.queued, rec)
	if len(st.queued) >= b.r.Transport().MaxBatch() {
		b.err = b.submit()
	}
	return b
}

// Upcall queues a kernel→user call. objs are shared objects synchronized to
// user level before the call body runs and back after.
func (b *Batch) Upcall(name string, fn func(uctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, true, fn, objs, nil, xdr.SlotDescriptor{}))
}

// UpcallData queues a kernel→user call carrying an opaque payload (packet
// bytes) transferred with the call.
//
// Ownership rule: the slice is aliased into the queued Call, not copied —
// it belongs to the batch from this call until the submission's Completion
// resolves, and the caller must not mutate or reuse it in that window. The
// crossing engine reads only the slice header (its length prices the
// transfer), so a violating mutation cannot corrupt an in-flight batch or
// race the async service goroutine — but what the decaf side observes
// through its own references is then undefined. Callers that need
// content-stable payloads under an async transport stage them through
// Runtime.AcquirePayload and UpcallPayload instead: a ring slot snapshots
// the bytes at acquire time.
func (b *Batch) UpcallData(name string, data []byte, fn func(uctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, true, fn, objs, data, xdr.SlotDescriptor{}))
}

// UpcallPayload queues a kernel→user call carrying a staged payload: a ring
// slot on the zero-copy fast path (only its descriptor crosses), or the raw
// bytes when the payload fell back to the copy path. The payload's slot, if
// any, must stay acquired until the flush's completion settles; drivers
// release it with Runtime.ReleasePayload when they reap the flush.
func (b *Batch) UpcallPayload(name string, p Payload, fn func(uctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, true, fn, objs, p.Data, p.Slot))
}

// UpcallHandler queues a kernel→user call dispatched through the handler
// table (registry.Register) instead of a closure: under a
// process-separated transport the registered body executes in the worker
// process; under the in-process transports it dispatches inline. The
// handler is resolved now, so a missing registration is a sticky batch
// error.
func (b *Batch) UpcallHandler(name string, objs ...any) *Batch {
	return b.addHandler(name, objs, nil, xdr.SlotDescriptor{})
}

// UpcallHandlerData is UpcallHandler with an opaque payload, delivered to
// the handler as its Ctx.Data. The slice is aliased under the same
// ownership rule as UpcallData.
func (b *Batch) UpcallHandlerData(name string, data []byte, objs ...any) *Batch {
	return b.addHandler(name, objs, data, xdr.SlotDescriptor{})
}

// UpcallHandlerPayload is UpcallHandler with a staged payload: on the
// zero-copy fast path the handler reads the ring slot's bytes — under the
// proc transport, through the worker's own shm mapping.
func (b *Batch) UpcallHandlerPayload(name string, p Payload, objs ...any) *Batch {
	return b.addHandler(name, objs, p.Data, p.Slot)
}

func (b *Batch) addHandler(name string, objs []any, data []byte, slot xdr.SlotDescriptor) *Batch {
	h := registry.Lookup(name)
	if h == nil {
		if b.err == nil {
			b.err = fmt.Errorf("xpc: no handler registered for %q", name)
		}
		return b
	}
	rec := b.newCall(name, true, nil, objs, data, slot)
	rec.call.h = h
	return b.add(rec)
}

// Downcall queues a user→kernel call.
func (b *Batch) Downcall(name string, fn func(kctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, false, fn, objs, nil, xdr.SlotDescriptor{}))
}

// DowncallData queues a user→kernel call carrying an opaque payload. The
// slice is aliased under the same ownership rule as UpcallData.
func (b *Batch) DowncallData(name string, data []byte, fn func(kctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, false, fn, objs, data, xdr.SlotDescriptor{}))
}

// DowncallPayload queues a user→kernel call carrying a staged payload,
// the downcall twin of UpcallPayload.
func (b *Batch) DowncallPayload(name string, p Payload, fn func(kctx *kernel.Context) error, objs ...any) *Batch {
	return b.add(b.newCall(name, false, fn, objs, p.Data, p.Slot))
}

// Len reports the calls queued and not yet submitted.
func (b *Batch) Len() int {
	if b.st == nil {
		return 0
	}
	return len(b.st.queued)
}

// Outstanding reports the calls submitted but not yet waited for.
func (b *Batch) Outstanding() int {
	if b.st == nil {
		return 0
	}
	return len(b.st.outstanding)
}

// Err reports the sticky error, if any, without flushing.
func (b *Batch) Err() error { return b.err }

// submit hands the queued calls to the transport, keeping them outstanding,
// and returns the first synchronously-known error.
func (b *Batch) submit() error {
	st := b.st
	if st == nil || len(st.queued) == 0 {
		return nil
	}
	subs := st.subs[:0]
	for _, rec := range st.queued {
		subs = append(subs, &rec.sub)
	}
	st.outstanding = append(st.outstanding, st.queued...)
	clear(st.queued)
	st.queued = st.queued[:0]
	err := b.r.Transport().Submit(b.r, b.ctx, subs)
	clear(subs)
	st.subs = subs[:0]
	return err
}

// Flush submits every queued call, waits for every submitted call to
// complete, and returns the first error encountered by this batch
// (including errors from earlier auto-flushes). Under an inline transport
// the crossings happened on the calling context; under an async transport
// the caller stalls only for latency not already hidden by overlap. The
// batch is reusable afterwards; the sticky error is cleared.
func (b *Batch) Flush() error {
	if ferr := b.submit(); b.err == nil {
		b.err = ferr
	}
	if st := b.st; st != nil {
		for _, rec := range st.outstanding {
			if werr := rec.comp.Wait(b.ctx); werr != nil && b.err == nil {
				b.err = werr
			}
		}
		b.r.recycleRecords(st.outstanding...)
		clear(st.outstanding)
		st.outstanding = st.outstanding[:0]
		b.release()
	}
	err := b.err
	b.err = nil
	return err
}

// FlushAsync submits every queued call and returns an aggregate Completion
// that resolves when the last of this batch's submitted calls does, without
// waiting: the caller keeps producing while the decaf side drains the
// crossing. The aggregate carries the first error in submission order, the
// combined crossing cost, and the latest virtual completion instant. Under
// an inline transport the calls completed during submission, so the handle
// is already settled and the aggregate is the flush's only allocation. The
// batch is reusable afterwards; the sticky error is cleared (it is carried
// by the returned completion).
func (b *Batch) FlushAsync() *Completion {
	ferr := b.submit()
	if b.err == nil {
		b.err = ferr
	}
	stickyErr := b.err
	b.err = nil
	st := b.st
	if st == nil || len(st.outstanding) == 0 {
		b.release()
		return newSettledCompletion(b.r, "flush", stickyErr, b.r.Kernel.Clock().Now())
	}
	children := st.outstanding
	p := &Completion{name: "flush", r: b.r}
	if allResolved(children) {
		fanIn(b.r, p, children)
		clear(children)
		st.outstanding = children[:0]
	} else {
		// The fan-in goroutine owns the records and their list from here.
		st.outstanding = nil
		go fanIn(b.r, p, children)
	}
	b.release()
	return p
}

// allResolved reports whether every record's completion has resolved.
func allResolved(recs []*callRecord) bool {
	for _, rec := range recs {
		if !rec.comp.isResolved() {
			return false
		}
	}
	return true
}

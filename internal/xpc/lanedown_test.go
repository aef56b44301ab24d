//go:build unix

package xpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"decafdrivers/internal/kernel"
)

// Tests for downcall-capable handlers on the lane rings: the FrameDown /
// FrameDownResult round trip between a handler executing in the worker and
// its kernel-side downcall target, carried by the claimed lane's own SPSC
// rings.

// TestProcLaneMixedChunkWithDowncalls: one chunk mixing a closure upcall,
// two downcall-capable handlers and a plain handler crosses as one lane
// crossing, published in segments that end at each downcall-capable frame.
// Every body runs, each nested downcall reaches its target, and the
// socketpair carries nothing but doorbells.
func TestProcLaneMixedChunkWithDowncalls(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	ctx := k.NewContext("test")
	var args []uint64
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		args = append(args, arg)
		return arg*2 + 1, nil
	})
	st := r.SharedState()
	st.Store(testCellDown, 0)
	served := st.Load(testCellServed)
	closureRan := false
	err := r.Batch(ctx).
		Upcall("xpctest_closure", func(uctx *kernel.Context) error { closureRan = true; return nil }).
		UpcallHandler("xpctest_down").
		UpcallHandlerData("xpctest_count", []byte{11}).
		UpcallHandler("xpctest_down").
		Flush()
	if err != nil {
		t.Fatal(err)
	}
	if !closureRan {
		t.Fatal("closure body did not run")
	}
	st = r.SharedState() // the first crossing rebound the cells onto shm
	if len(args) != 2 || args[0] != 7 || args[1] != 7 {
		t.Fatalf("downcall target saw args %v, want [7 7]", args)
	}
	if got := st.Load(testCellDown); got != 15 {
		t.Fatalf("down cell = %d, want 15", got)
	}
	if got := st.Load(testCellServed); got != served+1 {
		t.Fatalf("served cell moved by %d, want 1", got-served)
	}
	if echo := st.Load(testCellEcho); echo != 11 {
		t.Fatalf("echo cell = %d, want 11", echo)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 3 || c.WorkerDowncalls != 2 {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d, want 3/2", c.WorkerServedCalls, c.WorkerDowncalls)
	}
	if c.Upcalls != 1 || c.BatchedCalls != 4 || c.Downcalls != 2 {
		t.Fatalf("Upcalls=%d BatchedCalls=%d Downcalls=%d, want 1/4/2 (one batched upcall crossing, each nested downcall its own)",
			c.Upcalls, c.BatchedCalls, c.Downcalls)
	}
	if c.RingCrossings != 1 {
		t.Fatalf("RingCrossings = %d, want 1 (the chunk is one lane crossing)", c.RingCrossings)
	}
	if c.SyscallCrossings != c.DoorbellWakeups {
		t.Fatalf("SyscallCrossings = %d, DoorbellWakeups = %d: the chunk must not write the socketpair",
			c.SyscallCrossings, c.DoorbellWakeups)
	}
	// The lane is back in sync: the next chunk crosses normally.
	if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
		t.Fatalf("next call: %v", err)
	}
}

// TestProcLaneDowncallFailureAbortsChunk: a downcall-capable handler that
// fails after its downcall skips the rest of its chunk, exactly as the
// inline batch transport aborts it: the same error, the same bodies run,
// the same downcalls made.
func TestProcLaneDowncallFailureAbortsChunk(t *testing.T) {
	run := func(r *Runtime, ctx *kernel.Context) (err error, servedDelta uint64, downcalls int) {
		r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
			downcalls++
			return arg, nil
		})
		before := r.SharedState().Load(testCellServed)
		err = r.Batch(ctx).
			UpcallHandlerData("xpctest_count", []byte{3}).
			UpcallHandlerData("xpctest_down_fail", []byte{1}).
			UpcallHandlerData("xpctest_count", []byte{4}).
			UpcallHandler("xpctest_down").
			Flush()
		return err, r.SharedState().Load(testCellServed) - before, downcalls
	}

	ik := newTestKernel()
	inline := newDecafRuntime(ik)
	inline.SetTransport(BatchTransport{N: 4})
	wantErr, wantServed, wantDown := run(inline, ik.NewContext("inline"))
	if wantErr == nil || !strings.Contains(wantErr.Error(), "requested failure after downcall") {
		t.Fatalf("inline err = %v, want the handler's failure", wantErr)
	}

	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	err, served, down := run(r, ctx)
	if err == nil || !strings.Contains(err.Error(), "requested failure after downcall") {
		t.Fatalf("proc err = %v, want the handler's failure", err)
	}
	if IsUserFault(err) {
		t.Fatal("a failing handler must not be a fault")
	}
	if served != wantServed || down != wantDown {
		t.Fatalf("proc ran %d bodies and %d downcalls, inline %d and %d", served, down, wantServed, wantDown)
	}
	if served != 1 || down != 1 {
		t.Fatalf("served %d, downcalls %d: want 1/1 (the calls after the failure are skipped)", served, down)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 2 || c.WorkerDowncalls != 1 {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d, want 2/1", c.WorkerServedCalls, c.WorkerDowncalls)
	}
	if c.WorkerDeaths != 0 || !c.WorkerAlive {
		t.Fatalf("WorkerDeaths=%d WorkerAlive=%v: a failing handler must not cost the worker", c.WorkerDeaths, c.WorkerAlive)
	}
	// The skip armed by the failure covered exactly the rest of its chunk.
	pid := pt.WorkerPID()
	before := r.SharedState().Load(testCellServed)
	if err := r.UpcallHandlerData(ctx, "xpctest_count", []byte{5}); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if got := r.SharedState().Load(testCellServed); got != before+1 {
		t.Fatal("the call after an aborted chunk was skipped")
	}
	if pt.WorkerPID() != pid {
		t.Fatal("worker respawned after an ordinary handler failure")
	}
}

// TestProcLaneDowncallTargetErrorReachesHandler: a downcall target's error
// text crosses back in the FrameDownResult, the handler returns it, and the
// call fails with it as an ordinary (non-fault) handler failure.
func TestProcLaneDowncallTargetErrorReachesHandler(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		return 0, errors.New("register bus stuck")
	})
	err := r.UpcallHandler(ctx, "xpctest_down")
	if err == nil || !strings.Contains(err.Error(), "register bus stuck") || !strings.Contains(err.Error(), "failed in worker") {
		t.Fatalf("err = %v, want the target's error text as a worker-side handler failure", err)
	}
	if IsUserFault(err) {
		t.Fatal("a downcall error must not be a fault")
	}
	c := r.Counters()
	if c.WorkerServedCalls != 1 || c.WorkerDowncalls != 1 {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d, want 1/1", c.WorkerServedCalls, c.WorkerDowncalls)
	}
	pid := pt.WorkerPID()
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		return arg + 1, nil
	})
	if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if got := r.SharedState().Load(testCellDown); got != 8 {
		t.Fatalf("down cell = %d, want 8", got)
	}
	if pt.WorkerPID() != pid {
		t.Fatal("worker respawned after a downcall error")
	}
}

// TestProcOversizedDowncallHandlerFailsAtEncode: a downcall-capable
// handler whose frame cannot fit a descriptor slot has no path (nested
// downcalls ride only the lanes), so it fails at encode — nothing crosses
// and the worker keeps serving.
func TestProcOversizedDowncallHandlerFailsAtEncode(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	calls := 0
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		calls++
		return arg, nil
	})
	if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
		t.Fatal(err)
	}
	pid := pt.WorkerPID()
	err := r.UpcallHandlerData(ctx, "xpctest_down", make([]byte, 2*descSlotBytes))
	if !errors.Is(err, errProcEncode) {
		t.Fatalf("err = %v, want errProcEncode", err)
	}
	if IsUserFault(err) {
		t.Fatal("an encode failure must not be a fault")
	}
	if calls != 1 {
		t.Fatalf("downcall target ran %d times, want 1 (the oversized call must not dispatch)", calls)
	}
	c := r.Counters()
	if c.WorkerDeaths != 0 || !c.WorkerAlive {
		t.Fatalf("WorkerDeaths=%d WorkerAlive=%v after an encode failure", c.WorkerDeaths, c.WorkerAlive)
	}
	if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if pt.WorkerPID() != pid {
		t.Fatal("worker respawned after an encode failure")
	}
}

// TestProcKillMidDowncallHeals: the worker dies while a handler awaits its
// downcall's result (the target SIGKILLs it). The crossing fails promptly
// as a contained fault caused by the worker's death — not after the
// wedged-worker deadline — and the next call heals on a fresh worker with
// the shared cells intact.
func TestProcKillMidDowncallHeals(t *testing.T) {
	k, r, pt := newProcRig(t, 4)
	ctx := k.NewContext("test")
	if err := r.UpcallHandlerData(ctx, "xpctest_count", []byte{5}); err != nil {
		t.Fatal(err)
	}
	st := r.SharedState()
	served := st.Load(testCellServed)
	st.Store(testCellDown, 0)
	var targetCalls atomic.Int32
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		if targetCalls.Add(1) == 1 && !pt.KillWorker() {
			return 0, errors.New("no worker to kill")
		}
		return arg*2 + 1, nil
	})
	oldPID := pt.WorkerPID()
	start := time.Now()
	err := r.UpcallHandler(ctx, "xpctest_down")
	elapsed := time.Since(start)
	var uf *UserFault
	if !errors.As(err, &uf) {
		t.Fatalf("err = %v, want *UserFault", err)
	}
	if _, ok := uf.Cause.(*WorkerDeath); !ok {
		t.Fatalf("fault cause = %T (%v), want *WorkerDeath", uf.Cause, uf.Cause)
	}
	if elapsed > procWireTimeout/10 {
		t.Fatalf("the death surfaced after %v: it must be detected, not timed out", elapsed)
	}
	if got := st.Load(testCellDown); got != 0 {
		t.Fatalf("down cell = %d: the killed handler must not have completed", got)
	}
	if err := r.UpcallHandler(ctx, "xpctest_down"); err != nil {
		t.Fatalf("call after the kill: %v", err)
	}
	if pid := pt.WorkerPID(); pid == oldPID || pid == 0 {
		t.Fatalf("worker pid %d after the kill, want a fresh worker (old %d)", pid, oldPID)
	}
	if got := st.Load(testCellDown); got != 15 {
		t.Fatalf("down cell = %d after healing, want 15", got)
	}
	if got := st.Load(testCellServed); got != served {
		t.Fatalf("served cell = %d, want %d (state persists across worker epochs)", got, served)
	}
	if echo := st.Load(testCellEcho); echo != 5 {
		t.Fatalf("echo cell = %d, want the pre-kill value 5", echo)
	}
	if c := r.Counters(); c.WorkerDeaths < 1 {
		t.Fatalf("WorkerDeaths = %d, want >= 1", c.WorkerDeaths)
	}
}

// concurrentHandlerFlushes runs submitters goroutines, each flushing rounds
// batches of the named handler calls on its own kernel context, and fails
// the test on any error.
func concurrentHandlerFlushes(t *testing.T, k *kernel.Kernel, r *Runtime, submitters, rounds int, calls ...string) {
	t.Helper()
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := k.NewContext(fmt.Sprintf("submitter-%d", w))
			for i := 0; i < rounds; i++ {
				b := r.Batch(ctx)
				for _, name := range calls {
					b.UpcallHandler(name)
				}
				if err := b.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestProcConcurrentHandlerCrossings: handler crossings on concurrent lanes
// each charge the worker-served body's cost to the one decaf timeline; the
// accounting must be serialized (run under -race).
func TestProcConcurrentHandlerCrossings(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	const submitters, rounds = 4, 300
	served := r.SharedState().Load(testCellServed)
	concurrentHandlerFlushes(t, k, r, submitters, rounds, "xpctest_count", "xpctest_count")
	if got := r.SharedState().Load(testCellServed) - served; got != 2*submitters*rounds {
		t.Fatalf("served cell moved by %d, want %d", got, 2*submitters*rounds)
	}
	if c := r.Counters(); c.WorkerServedCalls != 2*submitters*rounds {
		t.Fatalf("WorkerServedCalls = %d, want %d", c.WorkerServedCalls, 2*submitters*rounds)
	}
}

// TestProcConcurrentDowncallCrossings: as above, with a downcall-capable
// handler in every chunk, so downcall service on one lane interleaves with
// handler accounting on the others.
func TestProcConcurrentDowncallCrossings(t *testing.T) {
	k, r, _ := newProcRig(t, 4)
	var targetCalls atomic.Uint64
	r.RegisterDowncall("xpctest_read_reg", func(kctx *kernel.Context, arg uint64) (uint64, error) {
		targetCalls.Add(1)
		return arg*2 + 1, nil
	})
	const submitters, rounds = 4, 300
	served := r.SharedState().Load(testCellServed)
	concurrentHandlerFlushes(t, k, r, submitters, rounds, "xpctest_count", "xpctest_down")
	if got := r.SharedState().Load(testCellServed) - served; got != submitters*rounds {
		t.Fatalf("served cell moved by %d, want %d", got, submitters*rounds)
	}
	if got := targetCalls.Load(); got != submitters*rounds {
		t.Fatalf("downcall target ran %d times, want %d", got, submitters*rounds)
	}
	c := r.Counters()
	if c.WorkerServedCalls != 2*submitters*rounds || c.WorkerDowncalls != submitters*rounds {
		t.Fatalf("WorkerServedCalls=%d WorkerDowncalls=%d, want %d/%d",
			c.WorkerServedCalls, c.WorkerDowncalls, 2*submitters*rounds, submitters*rounds)
	}
	if c.SyscallCrossings != c.DoorbellWakeups {
		t.Fatalf("SyscallCrossings = %d, DoorbellWakeups = %d: no crossing may write the socketpair",
			c.SyscallCrossings, c.DoorbellWakeups)
	}
}

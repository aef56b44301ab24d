//go:build unix

package xpc

import (
	"errors"
	"testing"
)

// TestRecordRecycleAfterResolve checks the invariant call-record recycling
// rests on: resolving a Completion is a transport's last touch of its
// submission. Under every transport it runs Flush and FlushAsync rounds
// between blocking calls, some calls failing and some faulting (so
// resolve's fault-notifier path runs), while each batch recycles its
// records as soon as their completions have been read. Run it with -race:
// a transport that read a submission after resolving it would race with
// the clear, and a notifier fed from a recycled record would see the wrong
// call.
func TestRecordRecycleAfterResolve(t *testing.T) {
	transports := []struct {
		name string
		make func(t *testing.T) Transport
	}{
		{"sync", func(*testing.T) Transport { return SyncTransport{} }},
		{"batch", func(*testing.T) Transport { return BatchTransport{N: 4} }},
		{"async", func(*testing.T) Transport { return NewAsyncTransport(AsyncConfig{Batch: 4}) }},
		{"proc", func(t *testing.T) Transport {
			pt, err := NewProcTransport(ProcConfig{Batch: 4})
			if err != nil {
				t.Fatal(err)
			}
			return pt
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			k := newTestKernel()
			r := newDecafRuntime(k)
			r.SetTransport(tr.make(t))
			defer r.SetTransport(nil)
			var notified []string
			r.SetFaultNotifier(func(ev FaultEvent) { notified = append(notified, ev.Call) })
			ctx := k.NewContext("test")
			ok, fail := []byte{0}, []byte{1}
			const rounds = 24
			faults := 0
			for i := 0; i < rounds; i++ {
				if err := r.UpcallHandlerData(ctx, "xpctest_count", ok); err != nil {
					t.Fatalf("round %d: blocking call: %v", i, err)
				}
				b := r.Batch(ctx)
				for j := 0; j < 6; j++ {
					b.UpcallHandlerData("xpctest_count", ok)
				}
				switch i % 8 {
				case 3:
					b.UpcallHandlerData("xpctest_fail", fail)
				case 7:
					b.UpcallHandler("xpctest_panic")
					faults++
				}
				var err error
				if i%2 == 0 {
					err = b.Flush()
				} else {
					err = b.FlushAsync().Wait(ctx)
				}
				switch {
				case i%8 == 7:
					if !IsUserFault(err) {
						t.Fatalf("round %d: flush with a faulting call returned %v, want a contained fault", i, err)
					}
				case i%8 == 3:
					if err == nil || IsUserFault(err) || errors.Is(err, ErrCrossingAborted) {
						t.Fatalf("round %d: flush with a failing call returned %v, want the handler's error", i, err)
					}
				case err != nil:
					t.Fatalf("round %d: %v", i, err)
				}
			}
			if err := r.DrainCrossings(ctx); err != nil {
				t.Fatal(err)
			}
			if len(notified) != faults {
				t.Fatalf("fault notifier saw %d faults, want %d", len(notified), faults)
			}
			for _, call := range notified {
				if call != "xpctest_panic" {
					t.Fatalf("fault notifier saw call %q, want xpctest_panic", call)
				}
			}
			if n := r.Counters().InFlight; n != 0 {
				t.Fatalf("InFlight = %d after the rounds, want 0", n)
			}
		})
	}
}

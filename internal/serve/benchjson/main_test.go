package main

import (
	"context"
	"runtime"
	"testing"
)

// TestServeBenchAccounting runs the whole benchmark once and checks
// only its timing-free accounting: every phase did the fixed work it
// claims, with no failed lookup counted as throughput. Rates and the
// shed share depend on the host and are not asserted.
func TestServeBenchAccounting(t *testing.T) {
	res, err := serveBench(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clients := runtime.GOMAXPROCS(0)
	if res.Clients != clients {
		t.Errorf("clients = %d, want GOMAXPROCS %d", res.Clients, clients)
	}
	wantBatched := int64(clients) * batches * batchSize
	if res.Lookups != wantBatched || res.BinaryLookups != wantBatched {
		t.Errorf("batched lookups JSON %d, binary %d, want %d each", res.Lookups, res.BinaryLookups, wantBatched)
	}
	if want := int64(clients) * singleOps; res.SingleOps != want {
		t.Errorf("single ops = %d, want %d", res.SingleOps, want)
	}
	if res.SweepPairs != sweepPairs {
		t.Errorf("sweep routed %d pairs, want %d", res.SweepPairs, sweepPairs)
	}

	o := res.Overload
	if want := int64(o.Clients) * overloadBatches; o.Requests != want {
		t.Errorf("overload answered %d requests, want %d clients x %d frames = %d",
			o.Requests, o.Clients, overloadBatches, want)
	}
	if want := (o.Requests - o.Shed) * overloadBatchPairs; o.Routed != want {
		t.Errorf("overload routed %d lookups, want (%d requests - %d shed) x %d = %d",
			o.Routed, o.Requests, o.Shed, overloadBatchPairs, want)
	}
}

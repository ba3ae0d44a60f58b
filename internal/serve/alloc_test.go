package serve

import "testing"

// TestRoutesBatchAllocsFlat pins that admitting and dispatching a
// routes-batch allocates per batch, not per pair: a 512-pair batch may
// cost only a small constant more allocations than an 8-pair one.
func TestRoutesBatchAllocsFlat(t *testing.T) {
	s := NewServer(Options{})
	topo, err := s.LoadTopology(TopoParams{Topo: "small", K: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(size int) Request {
		pairs := make([][2]int32, size)
		for i := range pairs {
			src := i % topo.Switches
			dst := (src + 1 + i/topo.Switches) % topo.Switches
			pairs[i] = [2]int32{int32(src), int32(dst)}
		}
		return Request{V: ProtocolVersion, ID: "1", Op: OpRoutesBatch, Topo: topo.Key, Pairs: pairs}
	}
	allocs := func(req Request) float64 {
		return testing.AllocsPerRun(20, func() {
			res := s.admit(req, nil)
			if res.resp.Batch == nil || res.resp.Batch.Routed != len(req.Pairs) {
				t.Fatalf("batch of %d did not route every pair: %+v", len(req.Pairs), res.resp)
			}
		})
	}
	small, large := allocs(batch(8)), allocs(batch(512))
	t.Logf("allocs per batch: %.1f for 8 pairs, %.1f for 512", small, large)
	if large > small+4 {
		t.Fatalf("a 512-pair batch allocates %.1f times vs %.1f for 8 pairs: per-pair allocation is back", large, small)
	}
}

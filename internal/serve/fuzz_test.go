package serve_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/serve"
)

// The binary-decoder fuzzers mirror FuzzCacheRead in internal/paths:
// adversarial bytes must never panic, over-allocate ahead of a bounds
// check, or decode into a value that re-encodes differently. The
// committed corpus under testdata/fuzz seeds them with the golden v2
// fixtures plus truncations, oversized length prefixes and version-skew
// bytes (see seedFrames).

// seedFrames returns the corpus starters: every golden fixture frame
// plus hand-built edge cases.
func seedFrames(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	matches, err := filepath.Glob(filepath.Join("testdata", "v2", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	out = append(out,
		[]byte{},                          // empty stream
		[]byte{0, 0, 0, 0},                // zero-length frame
		[]byte{0x01, 0x00, 0x10, 0x00},    // length prefix over MaxFrameBytes
		[]byte{0xff, 0xff, 0xff, 0xff},    // length prefix ~4GiB
		[]byte{5, 0, 0, 0, 1, 2},          // truncated: 5-byte frame, 2 present
		[]byte{1, 0, 0, 0, 99},            // unknown opcode, no id (short payload)
		serve.BinaryPreamble[:],           // preamble bytes as frame data
		[]byte{0x00, 'J', 'F', 'B', 0x03}, // version-skew preamble
	)
	// An estimate response whose float fields are NaN bit patterns (a
	// past crasher: the round-trip check must compare bytes, not floats).
	nanEst := []byte{
		37, 0, 0, 0, // frame length 37
		3, 0, 0, 0, 0, 0, 0, 0, // id 3
		4,          // estimate response kind
		1, 0, 0, 0, // candidates
		2, 0, 0, 0, // min hops
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // avg hops: NaN
		1, 0, 0, 0, // max share
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f, // throughput: NaN
	}
	out = append(out, nanEst)
	// A frame whose batch count claims more pairs than the payload holds.
	lying := []byte{
		17, 0, 0, 0, // frame length 17
		1, 0, 0, 0, 0, 0, 0, 0, // id 1
		2,    // routes-batch opcode
		0, 0, // empty topo string
		0xff, 0xff, 0xff, 0x7f, // pair count 2^31-1
	}
	out = append(out, lying)
	return out
}

// FuzzBinaryFrame drives the full stream path: frame parsing, request
// decoding and response decoding over arbitrary bytes. Nothing may
// panic; whatever decodes as a request must re-encode and re-decode to
// the same value.
func FuzzBinaryFrame(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			payload, err := serve.ReadFrame(br, &buf)
			if err != nil {
				return
			}
			if len(payload) > serve.MaxFrameBytes {
				t.Fatalf("ReadFrame returned %d bytes past the %d cap", len(payload), serve.MaxFrameBytes)
			}
			checkRequestRoundTrip(t, payload)
			// The response decoder faces the same bytes on the client side.
			if resp, err := serve.DecodeBinaryResponse(payload); err == nil {
				re, err := serve.AppendBinaryResponse(nil, &resp)
				if err != nil {
					return // unencodable decoded value (oversized string); fine
				}
				resp2, err := serve.DecodeBinaryResponse(re)
				if err != nil {
					t.Fatalf("response re-decode failed: %v", err)
				}
				// Byte-level fixed point, not DeepEqual: decoded NaN
				// payloads are legitimate and NaN != NaN.
				re2, err := serve.AppendBinaryResponse(nil, &resp2)
				if err != nil {
					t.Fatalf("response re-encode failed: %v", err)
				}
				if !bytes.Equal(re, re2) {
					t.Fatalf("response round trip drifted:\n first  % x\n second % x", re, re2)
				}
			}
		}
	})
}

// batchSeeds returns FuzzBinaryBatch's corpus starters: routes-batch
// payloads (no frame prefix) plus every golden payload.
func batchSeeds(t interface{ Fatal(...any) }) [][]byte {
	base, err := serve.AppendBinaryRequest(nil, 7, &serve.Request{
		Op: serve.OpRoutesBatch, Topo: "topo-A",
		Pairs: [][2]int32{{0, 1}, {5, 2}, {-3, 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{
		base,
		base[:len(base)-3], // truncated mid-pair
		base[:9],           // opcode only, no fields
	}
	for _, s := range seedFrames(t) {
		if len(s) > 4 {
			out = append(out, s[4:]) // golden payloads sans frame prefix
		}
	}
	return out
}

// FuzzBinaryBatch aims the mutator at the routes-batch payload — the
// highest-volume op — via raw payloads (no frame prefix). The server
// decodes every binary frame, batches included, with
// DecodeBinaryRequest, so this fuzzes the decoder that serves them.
func FuzzBinaryBatch(f *testing.F) {
	for _, s := range batchSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkRequestRoundTrip(t, payload)
	})
}

// TestFuzzCorpusCommitted keeps the on-disk fuzz corpus (the seeds a
// `go test -fuzz` session starts from, committed under testdata/fuzz)
// in lockstep with seedFrames/batchSeeds. Run with -update after adding
// a seed.
func TestFuzzCorpusCommitted(t *testing.T) {
	sync := func(name string, inputs [][]byte) {
		dir := filepath.Join("testdata", "fuzz", name)
		for i, in := range inputs {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(in)) + ")\n"
			if *updateGolden {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing corpus entry (run with -update): %v", err)
			}
			if string(got) != body {
				t.Errorf("%s drifted from its seed definition", path)
			}
		}
	}
	sync("FuzzBinaryFrame", seedFrames(t))
	sync("FuzzBinaryBatch", batchSeeds(t))
}

// checkRequestRoundTrip asserts the decode→encode→decode fixed point
// for any payload the request decoder accepts.
func checkRequestRoundTrip(t *testing.T, payload []byte) {
	t.Helper()
	id, req, err := serve.DecodeBinaryRequest(payload)
	if err != nil {
		return
	}
	re, err := serve.AppendBinaryRequest(nil, id, &req)
	if err != nil {
		// Ops without a binary encoding (unknown opcodes) and oversized
		// strings cannot re-encode; both are legitimate decode results.
		return
	}
	id2, req2, err := serve.DecodeBinaryRequest(re)
	if err != nil {
		t.Fatalf("request re-decode failed: %v (payload % x)", err, payload)
	}
	if id2 != id || !reflect.DeepEqual(req, req2) {
		t.Fatalf("request round trip drifted:\n first  %d %+v\n second %d %+v", id, req, id2, req2)
	}
}

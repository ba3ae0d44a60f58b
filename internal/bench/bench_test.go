package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestStampMatchesRuntime(t *testing.T) {
	want := Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if got := Stamp(); got != want {
		t.Fatalf("Stamp() = %+v, want %+v", got, want)
	}
}

// TestWriteJSONInlinesEnv pins the report shape every BENCH_*.json
// shares: valid JSON ending in a newline, with the embedded Env's
// fields at the top level beside the report's own.
func TestWriteJSONInlinesEnv(t *testing.T) {
	type report struct {
		Schema string `json:"schema"`
		Env
		Value float64 `json:"value"`
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := WriteJSON(path, report{Schema: "x/v1", Env: Stamp(), Value: 1.5}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf, []byte("}\n")) {
		t.Fatalf("file does not end in a newline after the object: %q", buf[max(0, len(buf)-8):])
	}
	var top map[string]any
	if err := json.Unmarshal(buf, &top); err != nil {
		t.Fatal(err)
	}
	env := Stamp()
	for key, want := range map[string]any{
		"schema":     "x/v1",
		"value":      1.5,
		"go_version": env.GoVersion,
		"goos":       env.GOOS,
		"goarch":     env.GOARCH,
		"gomaxprocs": float64(env.GOMAXPROCS),
		"num_cpu":    float64(env.NumCPU),
	} {
		if top[key] != want {
			t.Errorf("top-level %q = %v, want %v", key, top[key], want)
		}
	}
	if len(top) != 7 {
		t.Errorf("top-level keys = %v, want exactly the report and env fields", top)
	}
}

func TestRoundSizeClass(t *testing.T) {
	for _, c := range []struct{ n, want int64 }{
		{1, 8}, {8, 8}, {9, 16}, {33, 48}, {257, 288}, {1024, 1024}, {1025, 1032},
	} {
		if got := RoundSizeClass(c.n); got != c.want {
			t.Errorf("RoundSizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

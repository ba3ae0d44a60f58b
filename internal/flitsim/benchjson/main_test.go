package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// TestKeepBaseline walks the BENCH_flitsim.json lifecycle: the first
// write has no baseline, the second stores the first run's current
// series as its baseline, a third keeps that same baseline, and rebase
// drops it so the rebased run becomes the next baseline.
func TestKeepBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_flitsim.json")
	write := func(label string, rebase bool) report {
		t.Helper()
		rep := report{Current: series{Label: label, Points: []point{{Load: 0.1, NsPerCycle: float64(len(label))}}}}
		keepBaseline(&rep, path, rebase)
		if err := bench.WriteJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	first := write("first", false)
	if first.Baseline != nil {
		t.Fatalf("first write has baseline %+v", first.Baseline)
	}
	second := write("second", false)
	if second.Baseline == nil || !reflect.DeepEqual(*second.Baseline, first.Current) {
		t.Fatalf("second baseline = %+v, want the first run's current %+v", second.Baseline, first.Current)
	}
	third := write("third", false)
	if third.Baseline == nil || !reflect.DeepEqual(*third.Baseline, first.Current) {
		t.Fatalf("third baseline = %+v, want the first run's current %+v", third.Baseline, first.Current)
	}
	rebased := write("rebased", true)
	if rebased.Baseline != nil {
		t.Fatalf("rebase kept baseline %+v", rebased.Baseline)
	}
	after := write("after", false)
	if after.Baseline == nil || !reflect.DeepEqual(*after.Baseline, rebased.Current) {
		t.Fatalf("baseline after rebase = %+v, want the rebased run %+v", after.Baseline, rebased.Current)
	}
}

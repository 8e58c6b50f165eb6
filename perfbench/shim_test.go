package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"pario/internal/ceft"
	"pario/internal/chio"
	"pario/internal/collio"
	"pario/internal/core"
	"pario/internal/readahead"
)

// caps lists which capability interfaces a file and its file system
// implement.
func caps(fs chio.FileSystem, f chio.File) [4]bool {
	_, view := f.(chio.ViewReaderAt)
	_, vec := f.(chio.VectorReaderAt)
	_, hint := f.(chio.RangeHinter)
	_, bind := fs.(chio.ContextBinder)
	return [4]bool{view, vec, hint, bind}
}

// TestShimForwardsCapabilities pins that a timing shim exposes exactly
// the capability interfaces of the layer it wraps, for every layer the
// traced run shims, before and after context binding.
func TestShimForwardsCapabilities(t *testing.T) {
	pv, err := core.StartPVFS(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	pc, err := pv.Client()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	cd, err := core.StartCEFT(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cd.Close()
	cc, err := cd.Client(ceft.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	layers := []struct {
		name string
		fs   chio.FileSystem
	}{
		{"pvfs", pc},
		{"ceft", cc},
		{"readahead", readahead.Wrap(pc)},
		{"collio", collio.Wrap(pc)},
		{"mem", chio.NewMemFS()},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, l := range layers {
		if err := chio.WriteFull(l.fs, "f", []byte("ACGTACGTACGT")); err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		for _, bound := range []bool{false, true} {
			inner := l.fs
			shim := wrapFS(l.fs, newTracer(), l.name, "")
			if bound {
				inner = chio.BindContext(inner, ctx)
				shim = chio.BindContext(shim, ctx)
			}
			fi, err := inner.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			fs, err := shim.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := caps(shim, fs), caps(inner, fi); got != want {
				t.Errorf("%s (bound %v): shim capabilities %v, layer %v", l.name, bound, got, want)
			}
			fi.Close()
			fs.Close()
		}
	}
}

// TestSelfTimes checks self time against hand-computed intervals,
// including overlapping children and a child running past its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // ends after its parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	if got := len(subtree(spans, 3)); got != 2 {
		t.Errorf("subtree of 3 has %d spans, want 2", got)
	}
}

// TestBenchmarkFileListsMetrics keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkFileListsMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], perfbench %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

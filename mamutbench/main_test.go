package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s unit %q, want %q", label, name, m.Unit, unit)
		}
	}
}

// TestTinyWorkloads runs every workload at a tiny size on two seeds:
// every declared metric prints with its unit, every end-to-end metric is
// nonzero, and every pass passes its checks — including the traced pass's
// equality with the untraced ones.
func TestTinyWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2} {
			var log bytes.Buffer
			rep, err := run(&log, options{workload: name, seed: seed, tiny: true})
			if err != nil {
				t.Fatalf("%s seed %d: %v\n%s", name, seed, err, log.String())
			}
			if rep.failed != 0 || rep.attempted < minPasses+2 {
				t.Fatalf("%s seed %d: %d of %d passes failed\n%s", name, seed, rep.failed, rep.attempted, log.String())
			}
			checkMetrics(t, name+" end-to-end", rep.endToEnd, endToEnd)
			checkMetrics(t, name+" per-layer", rep.perLayer, perLayer)
			for k, m := range rep.endToEnd {
				if m.Value == 0 {
					t.Errorf("%s seed %d: end-to-end %s is 0", name, seed, k)
				}
			}
			for _, line := range []string{"digest " + name, "work transcode.frames=", "env {", "span "} {
				if !strings.Contains(log.String(), line) {
					t.Errorf("%s: output lacks %q", name, line)
				}
			}
		}
	}
}

// TestDecoratedPassEqualsUndecorated pins that wrapping the controllers
// or the placement policy changes no simulated output, and that the
// wrappers saw the layer they measure.
func TestDecoratedPassEqualsUndecorated(t *testing.T) {
	for _, name := range workloadNames {
		wl, err := setupWorkload(name, 3, true)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := wl.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := newTracer()
		traced, err := wl.run(tr)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if plain != traced {
			t.Errorf("%s: traced %+v != untraced %+v", name, traced, plain)
		}
		core, base := tr.ctrlTotals()
		if tr.totalFrames() == 0 {
			t.Errorf("%s: traced pass counted no frames", name)
		}
		if name == "paper-quick" {
			if core.calls == 0 || base.calls == 0 {
				t.Errorf("%s: controller calls core %d baseline %d, want both > 0", name, core.calls, base.calls)
			}
		} else if tr.index.place == 0 || tr.index.update == 0 {
			t.Errorf("%s: index place %d update %d, want both > 0 (scan fallback?)", name, tr.index.place, tr.index.update)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Exp", "mamut/internal/hevc.(*Model).Encode", "mamut/internal/transcode.(*Engine).step"}, "hevc"},
		{[]string{"mamut/internal/heaps.(*Heap[go.shape.struct { mamut/internal/serve.x int }]).Push"}, "heaps"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mamut/internal/rl.New"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode", "mamut/internal/transcode.EncodeSessionState"}, "json"},
		{[]string{"time.now", "main.(*tracedController).OnFrameStart", "mamut/internal/transcode.(*Engine).step"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack[0], got, c.want)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/pimlab/pimtrie/internal/metrics"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	samples := func() []float64 {
		s := make([]float64, 100)
		for i := range s {
			s[i] = float64(100 - i) // unsorted: tail sorts
		}
		return s
	}
	if v, err := tail(samples(), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	for _, q := range []float64{0.91, 0.95, 0.99} {
		if v, err := tail(samples(), q); err == nil {
			t.Errorf("p%g of 100 samples = %v; want an error, fewer than 10 lie beyond", 100*q, v)
		}
	}
	if _, err := tail(nil, 0.5); err == nil {
		t.Error("tail of no samples did not fail")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := time.Millisecond
	o := openLoop{start: t0, interval: 10 * ms}
	steps := []struct {
		sent, done            time.Duration // offsets from t0
		wantLatency, wantLate time.Duration
	}{
		{2 * ms, 7 * ms, 7 * ms, 2 * ms},     // due 0: sent a little late
		{15 * ms, 30 * ms, 20 * ms, 5 * ms},  // due 10: stalled behind the first, charged from due
		{30 * ms, 31 * ms, 11 * ms, 10 * ms}, // due 20: still behind schedule
		{30 * ms, 32 * ms, 2 * ms, 0},        // due 30: back on time
		{38 * ms, 40 * ms, 0, 0},             // due 40: early send counts no lateness
	}
	for i, s := range steps {
		if due := o.due(); !due.Equal(t0.Add(time.Duration(i) * 10 * ms)) {
			t.Fatalf("request %d due at %v, want %v", i, due.Sub(t0), time.Duration(i)*10*ms)
		}
		lat, late := o.record(t0.Add(s.sent), t0.Add(s.done))
		if lat != s.wantLatency || late != s.wantLate {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, lat, late, s.wantLatency, s.wantLate)
		}
	}
}

func TestWrongAnswerCountsAsFailure(t *testing.T) {
	var ok tally
	ok.checkGets("get", []uint64{1, 2}, []bool{true, false}, []uint64{1, 0}, []bool{true, false})
	if ok.attempted != 2 || ok.failed != 0 {
		t.Fatalf("right answers: %+v", ok)
	}

	d := &bsClient{}
	s := &bsStep{op: "get", wantVals: []uint64{7, 8, 9}, wantFound: []bool{true, true, false}}
	d.check(s, nil, []uint64{7, 99, 0}, []bool{true, true, false}, nil) // wrong value
	d.check(s, nil, []uint64{7, 8}, []bool{true, true}, nil)            // missing answer
	lcp := &bsStep{op: "lcp", wantLCP: []int{3, 5}}
	d.check(lcp, []int{3, 4}, nil, nil, nil)
	del := &bsStep{op: "delete", keys: make([]key, 2)}
	d.check(del, nil, nil, []bool{true, false}, nil)
	if d.checks.attempted != 10 || d.checks.failed != 4 || d.checks.firstErr == "" {
		t.Fatalf("tally %+v, want 4 of 10 failed with a description", d.checks)
	}
	if f := okFrac(d.checks); f != 0.6 {
		t.Errorf("ok_frac = %v, want 0.6", f)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{name: "index.get", start: 0, end: 100, id: 1},
		{name: "get", start: 5, end: 95, id: 2, parent: 1},
		{name: "block-match", start: 10, end: 40, id: 3, parent: 2},
		{name: "block-match", start: 50, end: 60, id: 4, parent: 2},
	}
	self := selfTimes(spans)
	want := map[string]int64{"index.get": 10, "get": 50, "block-match": 40}
	for n, v := range want {
		if self[n] != v {
			t.Errorf("self(%s) = %d, want %d", n, self[n], v)
		}
	}
}

func TestHistDeltaKeepsOnlyTheWindow(t *testing.T) {
	var h metrics.Histogram
	h.Observe(1)
	before := h.Snapshot()
	h.Observe(1)
	h.Observe(8)
	d := histDelta(before, h.Snapshot())
	if d.Count != 2 || d.Sum != 9 {
		t.Fatalf("delta count %d sum %v, want 2 and 9", d.Count, d.Sum)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for w := range workloads {
		have = append(have, w)
	}
	sort.Strings(names)
	sort.Strings(have)
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program runs %v", names, have)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ebm/internal/obs"
)

func TestFoldFrameInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Runtime frames above the innermost repo frame do not count.
		{[]string{"runtime.mallocgc", "ebm/internal/gpu.(*Core).issue", "ebm/internal/sim.(*Simulator).RunContext"}, "gpu"},
		{[]string{"ebm/internal/mem.(*MSHR).find", "ebm/internal/gpu.(*Core).issue"}, "mem"},
		{[]string{"encoding/json.Unmarshal", "ebm/internal/simcache.(*Cache).get.func1", "ebm/internal/runner.(*Runner).Do"}, "simcache"},
		// Repo packages outside the list, and the benchmark itself.
		{[]string{"ebm/internal/obs.(*Registry).WriteText", "ebm/internal/sim.New"}, "other"},
		{[]string{"main.measure", "runtime.main"}, "other"},
		{[]string{"ebm.NewPBSWS"}, "other"},
		// No repo frame at all: GC workers and the like.
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{nil, "runtime"},
	} {
		if got := foldFrame(c.stack); got != c.want {
			t.Errorf("foldFrame(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// spin burns CPU in a function of this package.
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink uint64

func TestFoldProfileDecodesARealProfile(t *testing.T) {
	var data []byte
	stop, err := startProfile(&data)
	if err != nil {
		t.Fatal(err)
	}
	sink = spin(400 * time.Millisecond)
	stop()
	cpu, err := foldProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	// The spin runs in this package, which is a repo frame outside the
	// package list.
	if cpu["other"] < 0.2 {
		t.Fatalf("other.cpu_s = %v after a 0.4 s spin, want most of it; fold %v", cpu["other"], cpu)
	}
	for p := range cpu {
		if _, ok := layerUnits[p+".cpu_s"]; !ok {
			t.Errorf("fold produced unlisted package %q", p)
		}
	}
}

func durations(n int) []time.Duration {
	xs := make([]time.Duration, n)
	for i := range xs {
		xs[i] = time.Duration(n-i) * time.Millisecond // descending: the rule must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	p90, err := percentile(durations(100), 0.9)
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	if p90 != 90*time.Millisecond {
		t.Fatalf("p90 of 1..100 ms = %v, want 90ms", p90)
	}
	if _, err := percentile(durations(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(durations(5), 0.9); err == nil {
		t.Fatal("p90 of 5 samples must be refused")
	}
	if p50, err := percentile(durations(21), 0.5); err != nil || p50 != 11*time.Millisecond {
		t.Fatalf("p50 of 21 samples = %v, %v; want 11ms", p50, err)
	}
	if m := median(durations(4)); m != 2500*time.Microsecond {
		t.Fatalf("median of 1..4 ms = %v, want 2.5ms", m)
	}
}

func span(id, parent uint64, name string, start, end int) obs.SpanData {
	return obs.SpanData{ID: id, Parent: parent, Name: name,
		Start: time.Duration(start) * time.Millisecond, End: time.Duration(end) * time.Millisecond}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []obs.SpanData{
		span(1, 0, "run", 0, 100),
		// Overlapping children cover [10,50) once, not twice; the part
		// of a child outside its parent does not count.
		span(2, 1, "cache.get", 10, 30),
		span(3, 1, "cache.put", 20, 50),
		span(4, 1, "cache.put", 90, 120),
		// pool.do covers its sibling execute span: 60-20 = 40ms waited.
		span(5, 1, "pool.do", 100, 160),
		span(6, 1, "execute", 120, 140),
		// A deduplicated waiter ran no execute of its own.
		span(7, 8, "pool.do", 0, 25),
		span(8, 0, "run", 0, 30),
	}
	self := selfTimes(spans)
	ms := time.Millisecond
	for name, want := range map[string]spanStat{
		"run":       {n: 2, self: (100-40-10)*ms + (30-25)*ms},
		"cache.get": {n: 1, self: 20 * ms},
		"cache.put": {n: 2, self: 60 * ms},
		"pool.do":   {n: 2, self: 40*ms + 25*ms},
		"execute":   {n: 1, self: 20 * ms},
	} {
		if got := self[name]; got != want {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}

func TestPromSumsByNameAndSeries(t *testing.T) {
	text := strings.Join([]string{
		`# HELP ebm_mshr_stall_cycles_total cycles stalled`,
		`# TYPE ebm_mshr_stall_cycles_total counter`,
		`ebm_mshr_stall_cycles_total{level="l1"} 7`,
		`ebm_mshr_stall_cycles_total{level="l2"} 3`,
		`ebm_windows_total 4`,
		`ebm_mshr_stall_cycles_total{level="l1"} 5`,
	}, "\n")
	s := promSums(text)
	if s[`ebm_mshr_stall_cycles_total{level="l1"}`] != 12 || s[`ebm_mshr_stall_cycles_total`] != 15 || s[`ebm_windows_total`] != 4 {
		t.Fatalf("promSums = %v", s)
	}
}

func TestOutputCheckRejectsAnotherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full online_compute repetitions, about half a minute")
	}
	ref := references["online_compute"]
	digest := func(seed uint64) string {
		j := newOnline("online_compute", "NW", "LUD", seed)
		if err := j.setup(false); err != nil {
			t.Fatal(err)
		}
		o, err := j.rep(false)
		if err != nil {
			t.Fatal(err)
		}
		return o.digest
	}
	if d := digest(0); checkDigest(0, d, d, ref) != nil {
		t.Fatalf("default seed digest %s does not match the reference %s", d, ref)
	}
	other := digest(1)
	// Checked against the default-seed reference, seed 1's output fails.
	if checkDigest(0, other, other, ref) == nil {
		t.Fatal("a seed-1 output passed the default-seed reference check")
	}
	// A repetition that differs from the run's first output fails at any
	// seed.
	if checkDigest(1, ref, other, ref) == nil {
		t.Fatal("an output that differs from the run's first passed")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric names, units
// and the per-layer list in step with BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
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
	var ours []string
	for _, w := range workloads {
		if w.withheld == "" {
			ours = append(ours, w.name)
		}
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark lists %v", names, ours)
	}
	printed, err := endToEnd(nil, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range printed {
		units[m.name] = m.unit
	}
	for _, m := range spec.EndToEnd {
		if !gated[m.Name] || units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s]: gated %v, printed unit %q", m.Name, m.Unit, gated[m.Name], units[m.Name])
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Errorf("BENCHMARK.json bounds %d end-to-end metrics, the JSON line carries %d", len(spec.EndToEnd), len(gated))
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer %s [%s]: printed unit %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
}

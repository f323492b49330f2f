package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ebm_events_total", "events", L("app", "0"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Set(42)
	if c.Value() != 42 {
		t.Fatalf("counter after Set = %d, want 42", c.Value())
	}
	g := r.Gauge("ebm_depth", "depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}

	// Idempotent registration returns the same handle.
	if c2 := r.Counter("ebm_events_total", "events", L("app", "0")); c2 != c {
		t.Fatal("re-registration returned a new counter")
	}
	// Same family, different labels: a distinct series.
	if c3 := r.Counter("ebm_events_total", "events", L("app", "1")); c3 == c {
		t.Fatal("different labels returned the same counter")
	}

	// An owner's counter registered directly is the series itself.
	var owned Counter
	r.RegisterCounter("ebm_owned_total", "owned", &owned)
	owned.Add(3)
	if got := r.Counter("ebm_owned_total", "owned"); got != &owned || got.Value() != 3 {
		t.Fatalf("registered counter not published: %p %d", got, got.Value())
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	c.Set(9)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric handles must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ebm_lat", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v, want 556.5", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ebm_lat_bucket{le="1"} 2`, // 0.5 and the boundary value 1
		`ebm_lat_bucket{le="10"} 3`,
		`ebm_lat_bucket{le="100"} 4`,
		`ebm_lat_bucket{le="+Inf"} 5`,
		`ebm_lat_sum 556.5`,
		`ebm_lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ebm_dram_row_hits_total", "DRAM row-buffer hits").Set(7)
	r.Gauge("ebm_app_eb", "per-app EB", L("app", "0"), L("name", "BLK")).Set(0.25)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ebm_dram_row_hits_total DRAM row-buffer hits\n",
		"# TYPE ebm_dram_row_hits_total counter\n",
		"ebm_dram_row_hits_total 7\n",
		"# TYPE ebm_app_eb gauge\n",
		`ebm_app_eb{app="0",name="BLK"} 0.25` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := renderLabels([]Label{{Key: "k", Value: `a"b\c`}}); got != `{k="a\"b\\c"}` {
		t.Fatalf("renderLabels = %s", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "")
}

// TestConcurrentScrape exercises the scrape-while-publish contract: value
// writes and WriteText from concurrent goroutines must be race-free.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1, 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(float64(i))
			h.Observe(float64(i % 3))
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

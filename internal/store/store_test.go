package store_test

import (
	"context"
	"os"
	"testing"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/faultinject"
	"ebm/internal/kernel"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/store"
)

// handle is one key scheme's public surface, reduced to what the
// counter test drives.
type handle struct {
	stats      func() store.Stats
	instrument func(*obs.Registry)
	setHooks   func(faultinject.Hooks)
	setRetry   func(resilience.Policy)
	put        func(key string) error
	get        func(key string) bool
	path       func(key string) string
	// compute runs one computation whose result the scheme persists.
	compute func() error
}

// smallSpec is a few-window single-app run on a reduced machine.
func smallSpec() spec.RunSpec {
	cfg := config.Default()
	cfg.NumCores = 2
	cfg.NumMemPartitions = 2
	app, _ := kernel.ByName("BLK")
	return spec.RunSpec{
		Config:       cfg,
		Apps:         []kernel.Params{app},
		Scheme:       spec.Static([]int{4}, nil),
		TotalCycles:  4_000,
		WarmupCycles: 1_000,
		WindowCycles: 1_000,
	}
}

func openSimcache(t *testing.T) handle {
	c, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rs := smallSpec()
	return handle{
		stats:      c.Stats,
		instrument: c.Instrument,
		setHooks:   c.SetHooks,
		setRetry:   func(p resilience.Policy) { c.SetResilience(p, nil) },
		put:        func(key string) error { return c.Put(key, sim.Result{Cycles: 1}) },
		get:        func(key string) bool { _, ok := c.Get(key); return ok },
		path:       c.Path,
		compute: func() error {
			_, err := simcache.RunCached(context.Background(), c, nil, runner.PriGrid, rs,
				func(context.Context) (sim.Result, error) { return sim.Result{Cycles: 2}, nil })
			return err
		},
	}
}

func openCkpt(t *testing.T) handle {
	st, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return handle{
		stats:      func() store.Stats { return st.Stats().Stats },
		instrument: st.Instrument,
		setHooks:   st.SetHooks,
		setRetry:   func(p resilience.Policy) { st.SetResilience(p, nil) },
		put:        func(key string) error { return st.Put(key, 1, []byte("payload")) },
		get:        func(key string) bool { _, _, ok := st.Best(key, 1); return ok },
		path:       func(key string) string { return st.Path(key, 1) },
		compute: func() error {
			// Four windows at the default cadence: one run-end checkpoint.
			_, err := ckpt.Execute(context.Background(), st, smallSpec())
			return err
		},
	}
}

// TestCountersMatchPublishedMetrics drives both key schemes through a
// hit, a plain miss, a torn blob, an injected read fault and a write
// failure that exhausts its retries, then checks every counter twice:
// against the expected traffic, and against the value Instrument
// published to the registry (one counter, not a copy that can drift).
func TestCountersMatchPublishedMetrics(t *testing.T) {
	old := store.Warnf
	store.Warnf = func(string, ...any) {} // the exhausted write warns by design
	t.Cleanup(func() { store.Warnf = old })

	for _, sc := range []struct {
		name string
		open func(*testing.T) handle
	}{
		{"simcache", openSimcache},
		{"ckpt", openCkpt},
	} {
		t.Run(sc.name, func(t *testing.T) {
			h := sc.open(t)
			reg := obs.NewRegistry()
			h.instrument(reg)

			if err := h.put("00000000000000aa"); err != nil {
				t.Fatal(err)
			}
			if !h.get("00000000000000aa") {
				t.Fatal("intact blob missed")
			}
			if h.get("00000000000000bb") {
				t.Fatal("absent blob hit")
			}
			if err := os.WriteFile(h.path("00000000000000cc"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			if h.get("00000000000000cc") {
				t.Fatal("torn blob hit")
			}
			h.setHooks(faultinject.New(faultinject.Config{CacheReadErrProb: 1}))
			if h.get("00000000000000aa") {
				t.Fatal("read fault hit")
			}
			h.setHooks(faultinject.New(faultinject.Config{CacheWriteErrProb: 1}))
			h.setRetry(resilience.Policy{Attempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond})
			if err := h.compute(); err != nil {
				t.Fatalf("exhausted write aborted the computation: %v", err)
			}

			s := h.stats()
			want := store.Stats{Hits: 1, Misses: 4, Writes: 1, Corrupt: 2, WriteFails: 1, BytesWritten: s.BytesWritten}
			if s != want {
				t.Fatalf("stats = %+v, want %+v", s, want)
			}
			for _, m := range []struct {
				name string
				v    uint64
			}{
				{"hits", s.Hits},
				{"misses", s.Misses},
				{"writes", s.Writes},
				{"corrupt", s.Corrupt},
				{"write_fails", s.WriteFails},
			} {
				metric := "ebm_" + sc.name + "_" + m.name + "_total"
				if got := reg.Counter(metric, "").Value(); got != m.v {
					t.Errorf("%s = %d, Stats says %d", metric, got, m.v)
				}
			}
		})
	}
}

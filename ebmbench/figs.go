package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/experiments"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/workload"
)

// figs regenerates the fig9 panel the way `paperfigs -quick -adaptive
// -ckpt` does, at the scale of the repository's figs benchmarks: a
// 4-core/4-partition machine, the alone-profile suite, and the panel for
// BLK_BFS and BFS_FFT. Cold passes start from an empty store; warm
// passes replay from a store prewarmed during set-up.
type figs struct {
	warm  bool
	pairs []workload.Workload
	dir   string
	pool  *runner.Runner

	passes int    // stores created so far
	store  string // the store the next pass uses
	cycles uint64 // engine cycles of the last cold pass
	gain   float64
	cold   string // transcript digest of the first cold pass
}

// newFigs prepares a figs workload. figs_cold also makes one untimed
// warm-up pass, so that the timed passes run in a process whose lazy
// initialisation is done and every set-up removes a full store.
func newFigs(warm bool, seed uint64, dir string) (*figs, error) {
	f := &figs{
		warm: warm,
		pairs: []workload.Workload{
			seededApps(workload.MustMake("BLK", "BFS"), seed),
			seededApps(workload.MustMake("BFS", "FFT"), seed),
		},
		dir:  dir,
		pool: runner.New(runtime.NumCPU()),
	}
	if !warm {
		f.store = filepath.Join(dir, "warm-up")
		if _, err := f.pass(false, true); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *figs) options(store *ckpt.Store) experiments.Options {
	cfg := config.Default()
	cfg.NumCores = 4
	cfg.NumMemPartitions = 4
	return experiments.Options{
		Config:       cfg,
		GridCycles:   8_000,
		GridWarmup:   1_000,
		EvalCycles:   20_000,
		EvalWarmup:   1_000,
		WindowCycles: 1_000,
		Workloads:    f.pairs,
		Adaptive:     true,
		SimCache:     filepath.Join(f.store, "simcache"),
		Ckpt:         store,
		Runner:       f.pool,
	}
}

// setup empties the store for the next pass: it removes the previous
// pass's store and creates a fresh one. On figs_warm the fresh store is
// then prewarmed with one cold pass, which the warm passes replay from.
func (f *figs) setup(bool) error {
	if f.store != "" {
		if err := os.RemoveAll(f.store); err != nil {
			return err
		}
	}
	f.passes++
	f.store = filepath.Join(f.dir, fmt.Sprintf("store-%d", f.passes))
	if err := os.MkdirAll(f.store, 0o755); err != nil {
		return err
	}
	if f.warm {
		if _, err := f.pass(false, true); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	return nil
}

// setups: every cold pass needs an empty store (and the one removed
// before the first pass is the warm-up pass's); warm passes share one
// prewarmed store, prewarmed three times so setup_s is a median.
func (f *figs) setups() (int, bool) {
	if f.warm {
		return 3, false
	}
	return 1, true
}

func (f *figs) rep(traced bool) (repOut, error) {
	out, err := f.pass(traced, !f.warm)
	if err != nil {
		return repOut{}, err
	}
	return out, nil
}

// pass runs one regeneration: open the stores, build a fresh
// experiments.Env (which profiles the suite or replays the profiles) and
// render fig9. A cold pass reports the engine cycles it ran; a warm pass
// reports those of the cold pass it replays.
func (f *figs) pass(traced, cold bool) (repOut, error) {
	ctx := context.Background()
	var tr *obs.Tracer
	if traced {
		tr = obs.NewTracer()
		ctx = obs.WithTracer(ctx, tr)
	}
	cycles0 := sim.CyclesSimulated()
	var transcript bytes.Buffer
	start, cpu0 := time.Now(), cpuTime()
	store, err := ckpt.Open(filepath.Join(f.store, "ckpt"))
	if err != nil {
		return repOut{}, err
	}
	e, err := experiments.NewEnv(ctx, f.options(store))
	if err != nil {
		return repOut{}, err
	}
	fig9, ok := experiments.ByID("fig9")
	if !ok {
		return repOut{}, fmt.Errorf("fig9 is not registered")
	}
	if err := fig9.Run(e, &transcript); err != nil {
		return repOut{}, err
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	ran := sim.CyclesSimulated() - cycles0
	if cold {
		f.cycles = ran
	}
	sum := sha256.Sum256(transcript.Bytes())
	out := repOut{wall: wall, cpu: cpu, ops: []time.Duration{wall}, cycles: f.cycles, digest: hex.EncodeToString(sum[:])}
	// Every pass, cold or warm, must render the first cold pass's
	// transcript: a warm pass that differs replayed something else.
	if f.cold == "" {
		f.cold = out.digest
	} else if out.digest != f.cold {
		return repOut{}, fmt.Errorf("transcript %s differs from the first cold pass's %s", out.digest, f.cold)
	}
	if traced {
		out.layer = figsLayer(e, tr.Spans(), ran)
	}
	if f.gain == 0 {
		if f.gain, err = f.pbsGain(e); err != nil {
			return repOut{}, err
		}
	}
	out.gain = f.gain
	return out, nil
}

// pbsGain is the geometric mean over the panel's pairs of the EB-WS of
// online PBS-WS over that of ++maxTLP, read back from the environment
// after the panel ran (both runs are results the panel stored).
func (f *figs) pbsGain(e *experiments.Env) (float64, error) {
	logSum := 0.0
	for _, w := range f.pairs {
		pbs, err := e.RunScheme(w, spec.PBS(metrics.ObjWS))
		if err != nil {
			return 0, err
		}
		max, err := e.RunScheme(w, spec.MaxTLP())
		if err != nil {
			return 0, err
		}
		logSum += math.Log(metrics.EBWS(pbs.EBs()) / metrics.EBWS(max.EBs()))
	}
	return math.Exp(logSum / float64(len(f.pairs))), nil
}

func (f *figs) reference() string { return references["fig9"] }

func (f *figs) close() { f.pool.Close() }

// figsLayer reads one traced pass's store counters and span self times.
func figsLayer(e *experiments.Env, spans []obs.SpanData, cycles uint64) map[string]float64 {
	cs, ks := e.Cache().Stats(), e.Ckpt().Stats()
	self := selfTimes(spans)
	m := map[string]float64{
		"simcache.hits":        float64(cs.Hits),
		"simcache.misses":      float64(cs.Misses),
		"simcache.writes":      float64(cs.Writes),
		"simcache.corrupt":     float64(cs.Corrupt),
		"simcache.write_fails": float64(cs.WriteFails),
		"ckpt.writes":          float64(ks.Writes),
		"ckpt.forks":           float64(ks.Forks),
		"ckpt.bytes_written":   float64(ks.BytesWritten),
		"ckpt.fork_ratio":      ratio(float64(ks.Forks), float64(ks.Writes)),
		"simcache.get_s":       self["cache.get"].self.Seconds(),
		"simcache.put_s":       self["cache.put"].self.Seconds(),
		"ckpt.best_s":          self["ckpt.best"].self.Seconds(),
		"ckpt.simulate_s":      self["simulate"].self.Seconds(),
		"runner.pool_wait_s":   self["pool.do"].self.Seconds(),
		"search.rung_n":        float64(self["adaptive-rung"].n),
		"profile.alone_n":      float64(self["alone"].n),
		"sim.cycles":           float64(cycles),
	}
	return m
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"ebm/internal/config"
	"ebm/internal/kernel"
	"ebm/internal/metrics"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/tlp"
	"ebm/internal/workload"
)

// The online workloads' run shape: EXPERIMENTS.md's evaluation setup on
// the Table I machine (10k warm-up, 2.5k-cycle windows), at half its 600k
// cycles so that one repetition covers inputVariants inputs.
const (
	onlineCycles = 300_000
	onlineWarmup = 10_000
	onlineWindow = 2_500
)

// inputVariants is how many input variants of the pair one online
// repetition runs. The seed changes which TLP levels PBS settles on, and
// with them the engine's cost per cycle by up to half, so a repetition
// spreads over several seeded variants instead of resting on one.
const inputVariants = 6

// online runs one application pair on the Table I machine, with no result
// store. A repetition runs, for each input variant, one ++maxTLP run and
// then one online PBS-WS run.
type online struct {
	name     string
	variants [][]kernel.Params
	runs     []*onlineRun // built by setup, consumed by rep
}

// onlineRun is one simulator plus what its callbacks record.
type onlineRun struct {
	sim     *sim.Simulator
	marks   []time.Time  // run start, then one per sampling window
	windows []tlp.Sample // deep copies, for the output digest
	reg     *obs.Registry
	mgr     *timedManager
}

// newOnline generates the pair's input variants: variant v of seed n
// applies seed n*inputVariants+v, so seed 0's first variant is the suite
// itself and no two seeds share a variant.
func newOnline(name, a, b string, seed uint64) *online {
	o := &online{name: name}
	for v := uint64(0); v < inputVariants; v++ {
		o.variants = append(o.variants, seededApps(workload.MustMake(a, b), seed*inputVariants+v).Apps)
	}
	return o
}

// seededApps applies an input seed to every application: seed 0 keeps
// the suite's own per-application seeds, any other seed is mixed into
// them, so the same seed always gives the same inputs.
func seededApps(w workload.Workload, seed uint64) workload.Workload {
	apps := make([]kernel.Params, len(w.Apps))
	copy(apps, w.Apps)
	if seed != 0 {
		for i := range apps {
			apps[i].Seed ^= splitmix64(seed)
		}
	}
	return workload.Workload{Name: w.Name, Apps: apps}
}

// splitmix64 spreads small seeds over all 64 bits.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func onlineSpec(apps []kernel.Params, sch spec.SchemeSpec) spec.RunSpec {
	return spec.RunSpec{
		Config:             config.Default(),
		Apps:               apps,
		Scheme:             sch,
		TotalCycles:        onlineCycles,
		WarmupCycles:       onlineWarmup,
		WindowCycles:       onlineWindow,
		DesignatedSampling: true,
	}
}

// setup builds every simulator of the next repetition: ++maxTLP and
// PBS-WS for each input variant. A traced set-up attaches a metric
// registry to each and wraps each PBS-WS manager in a timing wrapper.
func (o *online) setup(traced bool) error {
	o.runs = o.runs[:0]
	for i := 0; i < 2*len(o.variants); i++ {
		sch := spec.MaxTLP()
		if i%2 == 1 {
			sch = spec.PBS(metrics.ObjWS)
		}
		opts, err := sim.FromSpec(onlineSpec(o.variants[i/2], sch))
		if err != nil {
			return err
		}
		r := &onlineRun{
			marks:   make([]time.Time, 0, onlineCycles/onlineWindow+2),
			windows: make([]tlp.Sample, 0, onlineCycles/onlineWindow+1),
		}
		opts.OnWindow = func(s tlp.Sample) {
			r.marks = append(r.marks, time.Now())
			s.Apps = append([]tlp.AppSample(nil), s.Apps...)
			r.windows = append(r.windows, s)
		}
		if traced {
			r.reg = obs.NewRegistry()
			opts.Obs = &obs.Observer{Metrics: r.reg}
			if i%2 == 1 {
				r.mgr = &timedManager{inner: opts.Manager}
				opts.Manager = r.mgr
			}
		}
		if r.sim, err = sim.New(opts); err != nil {
			return err
		}
		o.runs = append(o.runs, r)
	}
	return nil
}

// setups: building the twelve simulators takes a few milliseconds, so
// fifty set-ups make setup_s a steady median; every repetition needs
// fresh simulators.
func (o *online) setups() (int, bool) { return 50, true }

func (o *online) rep(traced bool) (repOut, error) {
	if len(o.runs) == 0 {
		return repOut{}, fmt.Errorf("repetition without a set-up")
	}
	runs := o.runs
	o.runs = nil
	cycles0 := sim.CyclesSimulated()
	results := make([]sim.Result, len(runs))
	start, cpu0 := time.Now(), cpuTime()
	for i, r := range runs {
		r.marks = append(r.marks, time.Now())
		results[i] = r.sim.Run()
	}
	out := repOut{wall: time.Since(start), cpu: cpuTime() - cpu0, cycles: sim.CyclesSimulated() - cycles0}

	h := sha256.New()
	logGain := 0.0
	for i, r := range runs {
		for k := 1; k < len(r.marks); k++ {
			out.ops = append(out.ops, r.marks[k].Sub(r.marks[k-1]))
		}
		fmt.Fprintf(h, "run %d %+v\n", i, results[i])
		for _, w := range r.windows {
			fmt.Fprintf(h, "%+v\n", w)
		}
		if i%2 == 1 {
			logGain += math.Log(metrics.EBWS(results[i].EBs()) / metrics.EBWS(results[i-1].EBs()))
		}
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	out.gain = math.Exp(logGain / float64(len(runs)/2))
	if traced {
		out.layer = onlineLayer(runs, out)
	}
	return out, nil
}

func (o *online) reference() string { return references[o.name] }
func (o *online) close()            {}

// onlineLayer folds the registries and the manager wrapper of one traced
// repetition into per-layer counts.
func onlineLayer(runs []*onlineRun, out repOut) map[string]float64 {
	var text bytes.Buffer
	for _, r := range runs {
		_ = r.reg.WriteText(&text) // a bytes.Buffer write cannot fail
	}
	sum := promSums(text.String())
	m := map[string]float64{
		"gpu.issued":       sum[`ebm_app_insts_total`],
		"gpu.issue_stalls": sum[`ebm_mshr_stall_cycles_total{level="l1"}`],
		"gpu.idle_cycles":  sum[`ebm_core_idle_cycles_total`],
		"gpu.ff_cycles":    sum[`ebm_core_fastforward_cycles_total`],
		"mem.l2_stalls":    sum[`ebm_mshr_stall_cycles_total{level="l2"}`],
		"dram.bytes":       sum[`ebm_dram_bytes_total`],
		"sim.cycles":       float64(out.cycles),
		"sim.windows":      sum[`ebm_windows_total`],
	}
	m["gpu.issue_yield"] = ratio(m["gpu.issued"], m["gpu.issued"]+m["gpu.issue_stalls"])
	m["gpu.ff_share"] = ratio(m["gpu.ff_cycles"], m["gpu.idle_cycles"])
	gets := sum[`ebm_request_pool_gets_total`]
	m["mem.pool_hit_ratio"] = ratio(gets-sum[`ebm_request_pool_heap_allocs_total`], gets)
	hits := sum[`ebm_dram_row_hits_total`]
	m["dram.row_hit_ratio"] = ratio(hits, hits+sum[`ebm_dram_row_misses_total`])

	var decide []time.Duration
	for _, r := range runs {
		if r.mgr != nil {
			decide = append(decide, r.mgr.times...)
			m["core.tlp_changes"] += float64(r.mgr.changes)
		}
	}
	m["core.decisions"] = float64(len(decide))
	m["core.decide_us_p50"] = micros(median(decide))
	if p90, err := percentile(decide, 0.9); err == nil {
		m["core.decide_us_p90"] = micros(p90)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedManager is a tlp.Manager that times every decision of the manager
// it wraps and counts the decisions that change the TLP configuration.
type timedManager struct {
	inner   tlp.Manager
	last    tlp.Decision
	times   []time.Duration
	changes int
}

func (t *timedManager) Name() string { return t.inner.Name() }

func (t *timedManager) Initial(numApps int) tlp.Decision {
	t.last = t.inner.Initial(numApps)
	return t.last
}

func (t *timedManager) OnSample(s tlp.Sample) tlp.Decision {
	start := time.Now()
	d := t.inner.OnSample(s)
	t.times = append(t.times, time.Since(start))
	if !d.Equal(t.last) {
		t.changes++
	}
	t.last = d.Clone()
	return d
}

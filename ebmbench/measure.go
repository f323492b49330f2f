package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ebm/internal/obs"
)

//go:embed reference.json
var referenceJSON []byte

// references maps each output to its digest at the default seed: the
// online workloads' sim.Result plus per-window samples, and the fig9
// transcript both figs workloads render.
var references = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &m); err != nil {
		panic(fmt.Sprintf("reference.json: %v", err))
	}
	return m
}()

// checkDigest is the output check. Every repetition must reproduce the
// run's first output; at the default seed that output must also be the
// committed reference.
func checkDigest(seed uint64, got, first, ref string) error {
	if got != first {
		return fmt.Errorf("output %s differs from the run's first output %s", got, first)
	}
	if seed == 0 && got != ref {
		return fmt.Errorf("output %s differs from the default-seed reference %s", got, ref)
	}
	return nil
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs, refusing it
// unless at least minBeyond samples lie beyond it.
func percentile(xs []time.Duration, p float64) (time.Duration, error) {
	n := len(xs)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, fewer than %d", p*100, n, beyond, minBeyond)
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[idx], nil
}

// spanStat is one span name's count and total self time.
type spanStat struct {
	n    int
	self time.Duration
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover. A pool.do span also counts the
// execute span it ran as covered: the runner opens pool.do without
// passing its context on, so the execute span of the task it ran is
// recorded as pool.do's sibling under the same run span, and pool.do's
// self time is then the time the task waited in the queue (or on a
// deduplicated predecessor).
func selfTimes(spans []obs.SpanData) map[string]spanStat {
	children := map[uint64][]obs.SpanData{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]spanStat{}
	for _, s := range spans {
		cover := children[s.ID]
		if s.Name == "pool.do" {
			for _, sib := range children[s.Parent] {
				if sib.Name == "execute" && sib.Start >= s.Start && sib.End <= s.End {
					cover = append(cover, sib)
				}
			}
		}
		st := out[s.Name]
		st.n++
		st.self += s.Dur() - covered(s, cover)
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// within's interval.
func covered(within obs.SpanData, spans []obs.SpanData) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, within.Start), min(s.End, within.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// promSums sums the samples of Prometheus text exposition by metric name
// and by name plus label set, e.g. both `ebm_mshr_stall_cycles_total` and
// `ebm_mshr_stall_cycles_total{level="l1"}`.
func promSums(text string) map[string]float64 {
	sums := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		sums[name] += v
		if name != series {
			sums[series] += v
		}
	}
	return sums
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuTime is the CPU time the process has used so far, user and system,
// all threads. On a virtual machine it leaves out the time the host took
// the virtual CPU away (steal time), which wall-clock time includes.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2e is one end-to-end metric as printed.
type e2e struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// gated are the end-to-end metrics of the final JSON line, the ones
// BENCHMARK.json bounds: each is defined on every workload, is never 0
// and repeats within its bound across seeds. Both times are CPU time:
// on a virtual machine whose host takes the virtual CPU away for a tenth
// to a quarter of the time, wall-clock time measures the neighbours more
// than the program. The others are printed only: wall_s,
// sim_cycles_per_s and op_ms_p50 include that steal time, op_ms_p90 needs
// more operations than figs_cold has, failed_frac is 0 when the benchmark
// passes, and pbs_ebws_gain is modelled and moves with the seed.
var gated = map[string]bool{"setup_s": true, "cpu_s": true, "peak_rss_mb": true}

// endToEnd derives the end-to-end metrics from an untraced run.
func endToEnd(outs []repOut, setups []time.Duration, attempted, failed int) ([]e2e, error) {
	var walls, cpus, ops []time.Duration
	var wallSum time.Duration
	var cycles uint64
	for _, o := range outs {
		walls = append(walls, o.wall)
		cpus = append(cpus, o.cpu)
		ops = append(ops, o.ops...)
		wallSum += o.wall
		cycles += o.cycles
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	gain := 0.0
	if len(outs) > 0 {
		gain = outs[0].gain
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m := []e2e{
		{name: "setup_s", unit: "s", value: median(setups).Seconds(), n: len(setups)},
		{name: "wall_s", unit: "s", value: median(walls).Seconds(), n: len(walls)},
		{name: "cpu_s", unit: "s", value: median(cpus).Seconds(), n: len(cpus)},
		{name: "sim_cycles_per_s", unit: "cycles/s", value: float64(cycles) / wallSum.Seconds(), n: len(outs)},
		{name: "op_ms_p50", unit: "ms", value: ms(median(ops)), n: len(ops)},
	}
	if p90, err := percentile(ops, 0.9); err == nil {
		m = append(m, e2e{name: "op_ms_p90", unit: "ms", value: ms(p90), n: len(ops)})
	} else {
		m = append(m, e2e{name: "op_ms_p90", unit: "ms", value: math.NaN(), n: len(ops), note: "  (refused: " + err.Error() + ")"})
	}
	return append(m,
		e2e{name: "failed_frac", unit: "ratio", value: float64(failed) / float64(attempted), n: attempted},
		e2e{name: "peak_rss_mb", unit: "MiB", value: rss, n: 1},
		e2e{name: "pbs_ebws_gain", unit: "ratio", value: gain, n: len(outs)},
	), nil
}

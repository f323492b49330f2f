package main

import "time"

// layerUnits lists every per-layer metric and its unit. A traced run
// prints all of them; one a workload does not exercise reads 0.
var layerUnits = func() map[string]string {
	m := map[string]string{
		"gpu.issued": "count", "gpu.issue_stalls": "count", "gpu.issue_yield": "ratio",
		"gpu.idle_cycles": "count", "gpu.ff_cycles": "count", "gpu.ff_share": "ratio",
		"mem.l2_stalls": "count", "mem.pool_hit_ratio": "ratio",
		"dram.row_hit_ratio": "ratio", "dram.bytes": "bytes",
		"sim.cycles": "count", "sim.windows": "count",
		"core.decisions": "count", "core.tlp_changes": "count",
		"core.decide_us_p50": "us", "core.decide_us_p90": "us",
		"simcache.hits": "count", "simcache.misses": "count", "simcache.writes": "count",
		"simcache.corrupt": "count", "simcache.write_fails": "count",
		"ckpt.writes": "count", "ckpt.forks": "count", "ckpt.bytes_written": "bytes",
		"ckpt.fork_ratio": "ratio",
		"simcache.get_s":  "s", "simcache.put_s": "s", "ckpt.best_s": "s",
		"ckpt.simulate_s": "s", "runner.pool_wait_s": "s",
		"search.rung_n": "count", "profile.alone_n": "count",
		"runtime.alloc_mb": "MiB", "runtime.gc_n": "count", "runtime.gc_pause_ms": "ms",
		"trace.overhead_ratio": "ratio",
	}
	for _, p := range cpuPackages {
		m[p+".cpu_s"] = "s"
	}
	return m
}()

type layerValue struct {
	value float64
	unit  string
}

// layerMetrics averages the traced repetitions' per-layer values, adds
// the CPU profile folded by package (per repetition) and the tracing
// overhead against the untraced repetitions' median CPU time.
func layerMetrics(outs []repOut, profile []byte, untraced time.Duration) (map[string]layerValue, error) {
	sums := map[string]float64{}
	var cpus []time.Duration
	for _, o := range outs {
		for k, v := range o.layer {
			sums[k] += v
		}
		cpus = append(cpus, o.cpu)
	}
	cpu, err := foldProfile(profile)
	if err != nil {
		return nil, err
	}
	for p, s := range cpu {
		sums[p+".cpu_s"] += s
	}
	out := map[string]layerValue{}
	for k, unit := range layerUnits {
		out[k] = layerValue{value: sums[k] / float64(len(outs)), unit: unit}
	}
	out["trace.overhead_ratio"] = layerValue{value: ratio(median(cpus).Seconds(), untraced.Seconds()), unit: "ratio"}
	return out, nil
}

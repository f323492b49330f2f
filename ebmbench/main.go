// Command ebmbench is the repository's benchmark: it runs one named
// workload against the simulator's public packages, checks the simulated
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash ebmbench/run.sh --workload online_mem --seed 0 --seconds 15 --trace 0
//
// Every workload is a closed loop with one client: the next repetition
// starts only after the previous one finished. See README.md for the
// workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in the order `--workload all`
// runs them. A workload with a withheld reason runs on request but is not
// listed in BENCHMARK.json.
var workloads = []struct {
	name     string
	make     func(seed uint64, dir string) (job, error)
	withheld string
}{
	{"online_mem", func(seed uint64, _ string) (job, error) { return newOnline("online_mem", "BLK", "BFS", seed), nil }, ""},
	{"online_compute", func(seed uint64, _ string) (job, error) { return newOnline("online_compute", "NW", "LUD", seed), nil }, ""},
	{"figs_cold", func(seed uint64, dir string) (job, error) { return newFigs(false, seed, dir) }, ""},
	{"figs_warm", func(seed uint64, dir string) (job, error) { return newFigs(true, seed, dir) },
		"a data race in experiments.Env.EvalWorkload aborts some runs (README.md, Known defect)"},
}

// job is one workload instance inside one benchmark process.
type job interface {
	// setup prepares the next repetition.
	setup(traced bool) error
	// setups is how many set-ups run before the first repetition, and
	// whether every later repetition needs one of its own.
	setups() (initial int, each bool)
	// rep runs one repetition: the timed unit of work.
	rep(traced bool) (repOut, error)
	// reference is the committed digest a default-seed repetition must
	// reproduce.
	reference() string
	close()
}

// repOut is what one repetition measured and produced.
type repOut struct {
	wall   time.Duration
	cpu    time.Duration   // process CPU time, all threads
	ops    []time.Duration // per-operation host times
	cycles uint64          // engine cycles the results cost when computed cold
	gain   float64         // modelled PBS-WS / ++maxTLP EB-WS
	digest string          // digest of the simulated outputs
	layer  map[string]float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ebmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (online_mem, online_compute, figs_cold, figs_warm, or all)")
	seed := fs.Uint64("seed", 0, "input seed; 0 keeps the application suite's own seeds")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in host seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ebmbench: -trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		res, err := measure(w.name, w.make, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "ebmbench: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "ebmbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "ebmbench: unknown workload %q\n", *name)
	return 2
}

// runAll runs every workload in its own child process, one after the
// other, so each one's set-up time and peak memory are its own.
func runAll(seed uint64, seconds float64, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ebmbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "ebmbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload for the given timed length and returns its
// result. A traced run spends the first half of the length on untraced
// repetitions, whose outputs anchor the traced ones and whose median wall
// time is the base of the tracing overhead, and the second half on traced
// repetitions.
func measure(name string, mk func(uint64, string) (job, error), seed uint64, length time.Duration, traced bool, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return result{}, err
	}

	j, err := mk(seed, dir)
	if err != nil {
		return result{}, err
	}
	defer j.close()
	initial, each := j.setups()
	var setups []time.Duration
	setup := func(traced bool) error {
		cpu0 := cpuTime()
		if err := j.setup(traced); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuTime()-cpu0)
		return nil
	}
	for i := 0; i < initial; i++ {
		runtime.GC()
		if err := setup(false); err != nil {
			return result{}, err
		}
	}

	var (
		attempted, failed int
		first             string // the output every repetition must reproduce
		ref               = j.reference()
		needSetup         bool // the initial set-ups prepared the first repetition
	)
	// phase runs repetitions until length has passed, at least one, and
	// stops at the first one that errors.
	phase := func(traced bool, length time.Duration) ([]repOut, error) {
		var outs []repOut
		for start := time.Now(); len(outs) == 0 || time.Since(start) < length; {
			// An untraced repetition first collects the previous one's
			// garbage, which keeps it out of this one's timing and of the
			// peak resident memory. A traced one leaves collection to the
			// runtime, so the profile holds only the collections the work
			// itself causes.
			if !traced {
				runtime.GC()
			}
			if needSetup && each {
				if err := setup(traced); err != nil {
					return outs, err
				}
			}
			needSetup = true
			var mem0, mem1 runtime.MemStats
			if traced {
				runtime.ReadMemStats(&mem0)
			}
			attempted++
			o, err := j.rep(traced)
			if err != nil {
				failed++
				fmt.Fprintf(stdout, "repetition %d: %v\n", attempted, err)
				return outs, nil
			}
			if traced {
				runtime.ReadMemStats(&mem1)
				o.layer["runtime.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
				o.layer["runtime.gc_n"] = float64(mem1.NumGC - mem0.NumGC)
				o.layer["runtime.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
			}
			if first == "" {
				first = o.digest
			}
			if err := checkDigest(seed, o.digest, first, ref); err != nil {
				failed++
				fmt.Fprintf(stdout, "repetition %d: %v\n", attempted, err)
			}
			outs = append(outs, o)
		}
		return outs, nil
	}

	var outs, untraced []repOut
	var profile []byte
	if traced {
		if untraced, err = phase(false, length/2); err != nil {
			return result{}, err
		}
		if failed == 0 {
			stop, err := startProfile(&profile)
			if err != nil {
				return result{}, err
			}
			outs, err = phase(true, length/2)
			stop()
			if err != nil {
				return result{}, err
			}
		}
	} else if outs, err = phase(false, length); err != nil {
		return result{}, err
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	hostJSON, _ := json.Marshal(hostInfo()) // strings, numbers and booleans always encode
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	fmt.Fprintf(stdout, "workload %s seed %d: %d repetitions, %d set-ups, digest %s\n", name, seed, len(outs), len(setups), first)
	if len(outs) == 0 {
		return res, nil
	}
	if traced {
		var cpus []time.Duration
		for _, o := range untraced {
			cpus = append(cpus, o.cpu)
		}
		layer, err := layerMetrics(outs, profile, median(cpus))
		if err != nil {
			return result{}, err
		}
		for _, k := range sortedKeys(layer) {
			res.Metrics[k] = metric{Value: layer[k].value, Unit: layer[k].unit}
			fmt.Fprintf(stdout, "  %-26s %16.6g %s\n", k, layer[k].value, layer[k].unit)
		}
		return res, nil
	}
	e2e, err := endToEnd(outs, setups, attempted, failed)
	if err != nil {
		return result{}, err
	}
	for _, m := range e2e {
		fmt.Fprintf(stdout, "  %-18s %14.6g %-9s n=%d%s\n", m.name, m.value, m.unit, m.n, m.note)
		if gated[m.name] {
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostInfo is the host metadata printed with every result: comparisons
// are only meaningful between runs on one host.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// The commit is reported only from a git checkout of this repository.
	commit, dirty := "none", false
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
		"kernel":     kernel,
	}
}

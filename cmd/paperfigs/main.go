// Command paperfigs regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Usage:
//
//	paperfigs -list
//	paperfigs -id fig9            # one experiment
//	paperfigs -all                # everything, in paper order
//	paperfigs -all -quick         # reduced workload set and run lengths
//	paperfigs -all -out results/  # additionally write one file per panel
//
// Simulation results are cached under ./simcache by default (-simcache "");
// a warm rerun replays grids, evaluations, and the alone runs behind the
// profiles from disk. -ckpt
// additionally persists engine snapshots under -ckpt-dir and forks every
// uncached simulation from the deepest snapshot sharing its deterministic
// prefix — a cold -quick pass and the full pass share the prefix work.
//
// SIGINT/SIGTERM cancels the run cooperatively: in-flight simulations
// abort at their next window boundary, completed results stay persisted
// in the caches, and a rerun resumes from them (exit 130). A second
// signal kills the process immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ebm/internal/cli"
	"ebm/internal/experiments"
	"ebm/internal/workload"
)

func main() { cli.Main("paperfigs", run) }

func run(ctx context.Context) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		id      = fs.String("id", "", "run a single experiment by id (e.g. fig9)")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "reduced run lengths and the 10 representative workloads")
		simc    = fs.String("simcache", "simcache", "simulation-result cache directory (empty disables)")
		ckptOn  = fs.Bool("ckpt", false, "fork uncached simulations from prefix checkpoints")
		ckptDir = fs.String("ckpt-dir", "ckpt", "prefix-checkpoint store directory (with -ckpt)")
		ckptMax = fs.Int64("ckpt-max-bytes", 0, "checkpoint store byte cap, oldest evicted first (0 = unbounded)")
		adapt   = fs.Bool("adaptive", false, "compute bestTLP/oracle columns via the adaptive coarse-to-fine search instead of exhaustive grids")
		out     = fs.String("out", "", "directory to also write one text file per experiment")
		ledgerF = fs.String("ledger", "", "append one provenance record per completed run to this JSONL `file` (needs -simcache)")
		spansF  = fs.String("trace-spans", "", "write the orchestration spans as a Chrome trace-event `file` at exit")
	)
	if err := cli.Parse(fs, os.Args[1:]); err != nil {
		return err
	}

	if *list {
		for _, x := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", x.ID, x.Title)
		}
		return nil
	}
	if !*all && *id == "" {
		return cli.Usagef("pass -id <experiment>, -all, or -list")
	}

	// -trace-spans: the tracer rides ctx into NewEnv and every experiment
	// below it.
	ctx, finishSpans := cli.TraceSpans(ctx, "paperfigs", *spansF)
	defer finishSpans()
	stores, err := cli.OpenStores("paperfigs", cli.StoreFlags{
		SimCache: *simc, Ledger: *ledgerF, Ckpt: *ckptOn, CkptDir: *ckptDir, CkptMax: *ckptMax,
	})
	if err != nil {
		return err
	}
	defer stores.Close()
	opt := experiments.Options{SimCache: *simc, Adaptive: *adapt, Ledger: stores.Ledger, Ckpt: stores.Ckpt}
	if *quick {
		opt.GridCycles = 60_000
		opt.GridWarmup = 10_000
		opt.EvalCycles = 150_000
		opt.EvalWarmup = 5_000
		opt.Workloads = workload.Representative()
	}
	start := time.Now()
	env, err := experiments.NewEnv(ctx, opt)
	if err != nil {
		return fmt.Errorf("profiling failed: %w", err)
	}
	fmt.Fprintf(os.Stderr, "profiles ready in %.1fs\n", time.Since(start).Seconds())
	// The environment opens its own handle on the -simcache directory;
	// that handle carries the run's traffic, so the exit report reads it.
	stores.Cache = env.Cache()

	runOne := func(x experiments.Experiment) error {
		var w io.Writer = os.Stdout
		var f *os.File
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			var err error
			f, err = os.Create(filepath.Join(*out, x.ID+".txt"))
			if err != nil {
				return err
			}
			defer f.Close()
			w = io.MultiWriter(os.Stdout, f)
		}
		t0 := time.Now()
		if err := x.Run(env, w); err != nil {
			return fmt.Errorf("%s: %w", x.ID, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs]\n", x.ID, time.Since(t0).Seconds())
		return nil
	}

	if *id != "" {
		x, ok := experiments.ByID(*id)
		if !ok {
			return cli.Usagef("unknown experiment %q (try -list)", *id)
		}
		return runOne(x)
	}
	for _, x := range experiments.Registry() {
		if err := ctx.Err(); err != nil {
			return err // stop between experiments; completed panels are already printed
		}
		if err := runOne(x); err != nil {
			return err
		}
	}
	return nil
}

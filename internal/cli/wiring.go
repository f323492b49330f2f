package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"ebm/internal/ckpt"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/simcache"
)

// ErrVersion is what Parse returns after printing -version: the run
// stops there and exits 0 with nothing more printed.
var ErrVersion = errors.New("version printed")

// stdout is where -version prints; tests capture it.
var stdout io.Writer = os.Stdout

// Parse adds the -version flag every binary takes, parses args, and
// answers -version by printing the command name and Version and
// returning ErrVersion.
func Parse(fs *flag.FlagSet, args []string) error {
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, fs.Name(), Version())
		return ErrVersion
	}
	return nil
}

// TraceSpans serves -trace-spans: with a non-empty path it installs a
// tracer on ctx under a root span called name, and the returned finish
// func ends the root and writes the span tree as a Chrome trace-event
// file. With an empty path ctx comes back unchanged and finish does
// nothing.
func TraceSpans(ctx context.Context, name, path string, attrs ...obs.Attr) (context.Context, func()) {
	if path == "" {
		return ctx, func() {}
	}
	tracer := obs.NewTracer()
	ctx, root := obs.StartSpan(obs.WithTracer(ctx, tracer), name, attrs...)
	return ctx, func() {
		root.End()
		if err := writeFile(path, func(w io.Writer) error { return obs.WriteSpanTrace(w, tracer) }); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d spans to %s\n", name, tracer.Len(), path)
	}
}

// Profiles serves -cpuprofile and -memprofile: it starts the CPU
// profile now, and the returned stop func ends it and writes the heap
// profile. Empty paths skip their profile. A CPU profile that cannot
// start is an error before any work runs; a heap profile that cannot be
// written is reported on stderr.
func Profiles(name, cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			}
		}
		if memPath == "" {
			return
		}
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := writeFile(memPath, pprof.WriteHeapProfile); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
	}, nil
}

// writeFile creates path and runs write against it, reporting the
// first of the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Beside resolves a path flag whose "auto" value means file beside the
// -simcache directory, so the pair travels together. "auto" without a
// cache resolves to "" (off); any other value is returned as given.
func Beside(val, simcache, file string) string {
	if val != "auto" {
		return val
	}
	if simcache == "" {
		return ""
	}
	return filepath.Join(filepath.Dir(simcache), file)
}

// StoreFlags are a command's parsed -simcache, -ledger and -ckpt,
// -ckpt-dir, -ckpt-max-bytes values.
type StoreFlags struct {
	SimCache string // result cache directory; "" disables
	Ledger   string // provenance ledger file; "auto" = ledger.jsonl beside SimCache; "" disables
	Ckpt     bool   // open the prefix-checkpoint store
	CkptDir  string
	CkptMax  int64 // checkpoint store byte cap; 0 = unbounded
}

// Stores are the result cache, provenance ledger and checkpoint store a
// command runs against; each is nil when its flags leave it off. The
// ledger is installed on the cache, whose runs it records.
type Stores struct {
	Cache  *simcache.Cache
	Ledger *obs.Ledger
	Ckpt   *ckpt.Store
	name   string
}

// OpenStores opens the stores f asks for, both retrying failed writes
// under resilience.DefaultPolicy. An explicit -ledger without a cache is
// a usage error: provenance without run identity is meaningless. Close
// releases them and reports their traffic.
func OpenStores(name string, f StoreFlags) (*Stores, error) {
	if f.Ledger != "" && f.Ledger != "auto" && f.SimCache == "" {
		return nil, Usagef("-ledger needs -simcache")
	}
	s := &Stores{name: name}
	if f.SimCache != "" {
		c, err := simcache.Open(f.SimCache)
		if err != nil {
			return nil, err
		}
		s.Cache = c
	}
	if path := Beside(f.Ledger, f.SimCache, "ledger.jsonl"); path != "" {
		l, err := obs.OpenLedger(path)
		if err != nil {
			return nil, err
		}
		s.Ledger = l
		s.Cache.SetLedger(l)
	}
	if f.Ckpt {
		st, err := ckpt.Open(f.CkptDir)
		if err != nil {
			s.Ledger.Close()
			return nil, err
		}
		st.SetMaxBytes(f.CkptMax)
		s.Ckpt = st
	}
	s.SetResilience(nil)
	return s, nil
}

// SetResilience reports both stores' retried I/O failures to mon.
func (s *Stores) SetResilience(mon *resilience.Monitor) {
	s.Cache.SetResilience(resilience.DefaultPolicy(), mon)
	s.Ckpt.SetResilience(resilience.DefaultPolicy(), mon)
}

// Close closes the ledger and prints one stderr line per open store:
// records appended, cache hits/misses/writes, checkpoint forks/misses/
// writes.
func (s *Stores) Close() {
	if s.Ledger != nil {
		s.Ledger.Close()
		fmt.Fprintf(os.Stderr, "%s: %d provenance records appended to %s\n",
			s.name, s.Ledger.Appends(), s.Ledger.Path())
	}
	if s.Cache != nil {
		c := s.Cache.Stats()
		fmt.Fprintf(os.Stderr, "%s: simcache: %d hits, %d misses, %d results persisted (%s)\n",
			s.name, c.Hits, c.Misses, c.Writes, s.Cache.Dir())
	}
	if s.Ckpt != nil {
		c := s.Ckpt.Stats()
		fmt.Fprintf(os.Stderr, "%s: ckpt: %d forks, %d misses, %d checkpoints persisted (%s)\n",
			s.name, c.Forks, c.Misses, c.Writes, s.Ckpt.Dir())
	}
}

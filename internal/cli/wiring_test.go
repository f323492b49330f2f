package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebm/internal/obs"
)

func TestParseVersionPrintsAndStops(t *testing.T) {
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	err := Parse(fs, []string{"-version"})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("Parse(-version) = %v, want ErrVersion", err)
	}
	if want := "tool " + Version() + "\n"; buf.String() != want {
		t.Fatalf("-version printed %q, want %q", buf.String(), want)
	}
	var stderr strings.Builder
	if code := Run("tool", &stderr, func(context.Context) error { return err }); code != ExitOK || stderr.Len() != 0 {
		t.Fatalf("Run after -version: code %d, stderr %q; want 0 and silence", code, stderr.String())
	}

	buf.Reset()
	fs = flag.NewFlagSet("tool", flag.ContinueOnError)
	n := fs.Int("n", 0, "")
	if err := Parse(fs, []string{"-n", "3"}); err != nil || *n != 3 || buf.Len() != 0 {
		t.Fatalf("Parse without -version: err %v, n %d, printed %q", err, *n, buf.String())
	}
}

func TestTraceSpansWritesRootSpanAtFinish(t *testing.T) {
	ctx := context.Background()
	if got, finish := TraceSpans(ctx, "tool", ""); got != ctx {
		t.Fatal("TraceSpans without a path changed the context")
	} else {
		finish()
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	ctx, finish := TraceSpans(ctx, "tool", path, obs.A("workload", "BLK_TRD"))
	_, child := obs.StartSpan(ctx, "child")
	child.End()
	finish()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("span trace is not valid JSON: %v\n%s", err, b)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
		if e.Name == "tool" && e.Args["workload"] != "BLK_TRD" {
			t.Errorf("root span args %v lack workload=BLK_TRD", e.Args)
		}
	}
	if !names["tool"] || !names["child"] {
		t.Fatalf("trace events %v lack the root and child spans", names)
	}
}

func TestProfilesWriteCPUAndHeap(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Profiles("tool", cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i % 7
	}
	_ = sink
	stop()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", p, err)
		}
	}
	if _, err := Profiles("tool", filepath.Join(dir, "no", "such", "cpu.pprof"), ""); err == nil {
		t.Fatal("an unwritable -cpuprofile path was accepted")
	}
}

// TestOpenStoresLedgerAuto: "auto" is ledger.jsonl beside -simcache,
// installed on the cache — never a file named "auto".
func TestOpenStoresLedgerAuto(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStores("tool", StoreFlags{SimCache: filepath.Join(dir, "sc"), Ledger: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if want := filepath.Join(dir, "ledger.jsonl"); s.Ledger.Path() != want {
		t.Fatalf("-ledger auto opened %q, want %q", s.Ledger.Path(), want)
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger.jsonl")); err != nil {
		t.Fatal(err)
	}
	if s.Cache.Ledger() != s.Ledger {
		t.Fatal("the ledger is not installed on the result cache")
	}
	if s.Ckpt != nil {
		t.Fatal("checkpoint store opened without -ckpt")
	}
}

// TestOpenStoresLedgerWithoutCache: an explicit ledger needs a cache
// (usage error); "auto" and "" without one mean no ledger.
func TestOpenStoresLedgerWithoutCache(t *testing.T) {
	dir := t.TempDir()
	_, err := OpenStores("tool", StoreFlags{Ledger: filepath.Join(dir, "l.jsonl")})
	if !IsUsage(err) || ExitCode(err) != ExitUsage {
		t.Fatalf("explicit -ledger without -simcache: err %v, want a usage error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "l.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("refused ledger was created: %v", err)
	}
	for _, l := range []string{"auto", ""} {
		s, err := OpenStores("tool", StoreFlags{Ledger: l})
		if err != nil {
			t.Fatalf("-ledger %q without -simcache: %v", l, err)
		}
		if s.Ledger != nil || s.Cache != nil {
			t.Fatalf("-ledger %q without -simcache opened a ledger or cache", l)
		}
		s.Close()
	}
}

func TestOpenStoresHonoursCkptMaxBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	const max = 200
	s, err := OpenStores("tool", StoreFlags{Ckpt: true, CkptDir: dir, CkptMax: max})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Ckpt == nil || s.Ckpt.Dir() != dir {
		t.Fatalf("checkpoint store not opened at %s", dir)
	}
	payload := bytes.Repeat([]byte{7}, 80)
	for w := uint64(1); w <= 4; w++ {
		if err := s.Ckpt.Put("prefix", w, payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Ckpt.Stats().Evictions == 0 {
		t.Fatal("no evictions under -ckpt-max-bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > max {
		t.Fatalf("checkpoint store holds %d bytes, cap %d", total, max)
	}
}

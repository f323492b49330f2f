// Package store is the on-disk, content-addressed blob store under both
// the simulation-result cache (internal/simcache) and the prefix
// checkpoint store (internal/ckpt). Each of those is a key scheme over
// a Store: it names its blobs and supplies their codec, and the store
// owns everything the two used to implement twice.
//
//   - Layout: one directory, one file per blob name. Files without the
//     scheme's extension (temp files, foreign files) are not blobs.
//   - Writes go to a temp file in the directory and are renamed into
//     place, so a killed writer leaves the old blob or the new one,
//     never a torn one.
//   - The write rule: Put is put-if-absent, where "absent" means no
//     blob under that name decodes intact. A blob is a deterministic
//     function of its name, so an intact one is already correct, and a
//     torn or foreign one is healed by the next Put.
//   - The read ladder: Get tries candidate names in the caller's order
//     (deepest checkpoint first); an unreadable, torn or foreign blob
//     is counted corrupt and skipped for the next, and exhausting them
//     is a miss. Concurrent readers of one name share one read.
//   - Persist retries a failed Put under the resilience policy, then
//     degrades to a warning and a counted write failure: the caller
//     still has its value, it just is not on disk.
//   - A byte cap evicts the oldest blobs after every write.
//   - Traffic is counted in obs.Counters only: Stats reads them and
//     Instrument registers the same counters with a registry.
//
// Every method is safe for concurrent use and nil-safe: a nil *Store
// misses every read and drops every write.
package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
)

// Warnf surfaces non-fatal store degradation (a value that could not be
// persisted). Stderr by default; replaceable for tests and embedding.
var Warnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// Scheme is what a key scheme tells the store about its blobs.
type Scheme[V any] struct {
	// Name prefixes errors, warnings, retry labels and metric names
	// ("simcache" → ebm_simcache_hits_total).
	Name string
	// Fault stems the provenance fault labels recorded on injected or
	// failed I/O: Fault+"-read" and Fault+"-write".
	Fault string
	// Ext is the blob file extension.
	Ext string
	// Decode validates the bytes read under name and returns the value
	// they hold; an error marks the blob corrupt.
	Decode func(name string, b []byte) (V, error)
}

// Stats is a point-in-time snapshot of one store handle's traffic.
type Stats struct {
	Hits         uint64 // lookups served an intact blob
	Misses       uint64 // lookups with no intact blob
	Writes       uint64 // blobs persisted
	Corrupt      uint64 // unreadable, torn or foreign blobs skipped
	WriteFails   uint64 // persists that failed after retries (values still served)
	Evictions    uint64 // blobs removed to honour the byte cap
	BytesWritten uint64 // blob bytes persisted
}

// Store is a directory of blobs of one scheme.
type Store[V any] struct {
	dir      string
	scheme   Scheme[V]
	maxBytes int64 // on-disk budget; 0 = unbounded

	// Resilience wiring, set before use: hooks is the fault-injection
	// seam (nil in production), retry the persist backoff policy (zero
	// value = resilience.DefaultPolicy), mon the incident sink (nil
	// discards).
	hooks faultinject.Hooks
	retry resilience.Policy
	mon   *resilience.Monitor

	reads runner.Group // concurrent readers of one name share one read
	mu    sync.Mutex   // serializes check+write+evict: put-if-absent and the cap are invariants

	hits, misses, writes, corrupt, writeFails, evictions, bytesWritten obs.Counter
}

// Open returns a store of the scheme rooted at dir, creating it if
// needed.
func Open[V any](dir string, scheme Scheme[V]) (*Store[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: %w", scheme.Name, err)
	}
	return &Store[V]{dir: dir, scheme: scheme}, nil
}

// Dir returns the store root ("" for a nil store).
func (s *Store[V]) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Path returns the file holding the blob name.
func (s *Store[V]) Path(name string) string {
	return filepath.Join(s.dir, name)
}

// SetHooks installs the fault-injection seam (chaos tests, ebsim
// -chaos). Call before submitting work; nil is the production default.
func (s *Store[V]) SetHooks(h faultinject.Hooks) {
	if s != nil {
		s.hooks = h
	}
}

// SetResilience installs the persist retry policy and the incident
// monitor. The zero Policy retries with resilience.DefaultPolicy; a nil
// monitor discards incidents. Call before submitting work.
func (s *Store[V]) SetResilience(p resilience.Policy, mon *resilience.Monitor) {
	if s != nil {
		s.retry, s.mon = p, mon
	}
}

// Monitor returns the incident monitor installed by SetResilience (nil
// when none is, or for a nil store).
func (s *Store[V]) Monitor() *resilience.Monitor {
	if s == nil {
		return nil
	}
	return s.mon
}

// SetMaxBytes caps the store's on-disk footprint: after every write the
// oldest blobs (by modification time) are evicted until the total fits,
// the just-written one included. 0 means unbounded. Call before
// submitting work.
func (s *Store[V]) SetMaxBytes(n int64) {
	if s != nil {
		s.maxBytes = n
	}
}

// Stats returns the handle's traffic counters.
func (s *Store[V]) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Hits:         s.hits.Value(),
		Misses:       s.misses.Value(),
		Writes:       s.writes.Value(),
		Corrupt:      s.corrupt.Value(),
		WriteFails:   s.writeFails.Value(),
		Evictions:    s.evictions.Value(),
		BytesWritten: s.bytesWritten.Value(),
	}
}

// Instrument registers the handle's counters with reg as
// ebm_<scheme>_{hits,misses,writes,corrupt,write_fails,write_evictions,bytes_written}_total.
func (s *Store[V]) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	for _, m := range []struct {
		c          *obs.Counter
		name, help string
	}{
		{&s.hits, "hits", "lookups served an intact blob from the store"},
		{&s.misses, "misses", "lookups that found no intact blob"},
		{&s.writes, "writes", "blobs persisted"},
		{&s.corrupt, "corrupt", "unreadable, torn or foreign blobs skipped"},
		{&s.writeFails, "write_fails", "values computed but not persisted after retries"},
		{&s.evictions, "write_evictions", "blobs evicted to honour the byte cap"},
		{&s.bytesWritten, "bytes_written", "blob bytes persisted"},
	} {
		reg.RegisterCounter(fmt.Sprintf("ebm_%s_%s_total", s.scheme.Name, m.name), m.help, m.c)
	}
}

// Get walks the read ladder over names, in order, and returns the first
// intact blob's value. Each unreadable, torn or foreign candidate is
// counted corrupt and skipped; exhausting them is a counted miss. A
// single name is one direct file read: no directory listing.
func (s *Store[V]) Get(ctx context.Context, names ...string) (V, bool) {
	return s.get(ctx, true, names)
}

// Peek is Get without counting the miss: a re-check that follows a
// lookup which already counted one.
func (s *Store[V]) Peek(ctx context.Context, name string) (V, bool) {
	return s.get(ctx, false, []string{name})
}

func (s *Store[V]) get(ctx context.Context, countMiss bool, names []string) (v V, ok bool) {
	if s == nil {
		return v, false
	}
	for _, name := range names {
		if h := s.hooks; h != nil {
			if err := h.CacheRead(name); err != nil {
				// An unreadable blob degrades exactly like a corrupt one.
				obs.TrailFrom(ctx).AddFault(s.scheme.Fault + "-read")
				s.corrupt.Inc()
				continue
			}
		}
		b, _, err := s.reads.Do(name, func() (any, error) {
			return os.ReadFile(s.Path(name))
		})
		if err != nil {
			continue // absent, or raced with eviction: not corruption, just gone
		}
		if v, err := s.scheme.Decode(name, b.([]byte)); err == nil {
			s.hits.Inc()
			return v, true
		}
		s.corrupt.Inc()
	}
	if countMiss {
		s.misses.Inc()
	}
	return v, false
}

// Reject counts as corrupt a blob that decoded intact but that its
// consumer could not use (a checkpoint payload that fails to restore).
func (s *Store[V]) Reject() {
	if s != nil {
		s.corrupt.Inc()
	}
}

// Has reports whether a file exists under name, intact or not: a stat,
// for callers that skip encoding a value the store would not write.
func (s *Store[V]) Has(name string) bool {
	if s == nil {
		return false
	}
	_, err := os.Stat(s.Path(name))
	return err == nil
}

// Names lists the blobs whose names start with prefix.
func (s *Store[V]) Names(prefix string) []string {
	if s == nil {
		return nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasPrefix(n, prefix) && strings.HasSuffix(n, s.scheme.Ext) {
			names = append(names, n)
		}
	}
	return names
}

// Len counts the blobs on disk.
func (s *Store[V]) Len() int {
	return len(s.Names(""))
}

// Put writes b under name by the write rule: nothing is written when an
// intact blob already holds the name; otherwise b goes to a temp file
// and is renamed into place, then the byte cap is enforced.
func (s *Store[V]) Put(name string, b []byte) error {
	if s == nil {
		return nil
	}
	if h := s.hooks; h != nil {
		if err := h.CacheWrite(name); err != nil {
			return fmt.Errorf("%s: write %s: %w", s.scheme.Name, name, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, err := os.ReadFile(s.Path(name)); err == nil {
		if _, err := s.scheme.Decode(name, old); err == nil {
			return nil
		}
	}
	if err := WriteFile(s.Path(name), b); err != nil {
		return fmt.Errorf("%s: %w", s.scheme.Name, err)
	}
	s.writes.Inc()
	s.bytesWritten.Add(uint64(len(b)))
	s.evictLocked()
	return nil
}

// WriteFile replaces the file at path with b atomically: b goes to a
// temp file in the same directory, which is then renamed into place, so
// readers and killed writers see the old content or the new, never a
// torn file.
func WriteFile(path string, b []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Persist encodes and Puts a value through the retry policy. Exhausting
// the retries degrades to an unpersisted value with a surfaced warning
// and a counted write failure, never an error: the caller's value is
// still good, the next run just computes it again.
func (s *Store[V]) Persist(ctx context.Context, name string, encode func() ([]byte, error)) {
	if s == nil {
		return
	}
	err := s.retry.Retry(ctx, s.scheme.Name+":"+name, s.mon, func() error {
		b, err := encode()
		if err != nil {
			return fmt.Errorf("%s: encode %s: %w", s.scheme.Name, name, err)
		}
		return s.Put(name, b)
	})
	if err != nil {
		obs.TrailFrom(ctx).AddFault(s.scheme.Fault + "-write")
		s.writeFails.Inc()
		Warnf("%s: warning: %s computed but not persisted: %v", s.scheme.Name, name, err)
	}
}

// evictLocked removes the oldest blobs until the store fits its byte
// budget. Caller holds s.mu.
func (s *Store[V]) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	type file struct {
		name string
		size int64
		mod  int64
	}
	var files []file
	var total int64
	for _, name := range s.Names("") {
		info, err := os.Stat(s.Path(name))
		if err != nil {
			continue
		}
		files = append(files, file{name, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name // deterministic among same-instant writes
	})
	for _, f := range files {
		if total <= s.maxBytes {
			return
		}
		if os.Remove(s.Path(f.name)) == nil {
			total -= f.size
			s.evictions.Inc()
		}
	}
}

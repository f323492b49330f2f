// Package simcache is a versioned, content-addressed on-disk cache for
// simulation results. A run is identified by a fingerprint of its
// canonical spec.RunSpec — the machine configuration, the applications,
// the scheme with every knob explicit, and the run lengths — so grid
// cells, evaluation runs, and alone profiles persist across processes:
// an interrupted sweep resumes where it stopped and a warm paperfigs run
// replays from disk instead of re-simulating. Because the key is the
// canonical spec JSON rather than a manager name string, any knobbed
// manager the registry can build is cacheable, and equivalent requests
// (++maxTLP vs the static combination it executes as, a labeled alone
// run vs the same static run) deduplicate onto one entry.
//
// The cycle engine is deterministic (pinned by the golden bit-identity
// tests in internal/sim), and sim.Result round-trips JSON exactly (Go
// encodes float64 with the shortest form that parses back to the same
// bits), so a cached result is bit-identical to a fresh computation —
// test-enforced here and in internal/search.
//
// Invalidation is by key, never by mutation: the key embeds
// SchemaVersion, which MUST be bumped whenever engine behaviour changes
// (the same commits that regenerate internal/sim's golden files), and
// every behavioural knob of the run. The entries live in an
// internal/store directory, which owns the write rule, the atomic
// writes and the counters; reads tolerate corruption (a truncated,
// garbled, or foreign-schema entry is a miss, never an error), so a
// killed process cannot poison the cache.
package simcache

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/runner"
	"ebm/internal/sim"
	"ebm/internal/spec"
	"ebm/internal/store"
)

// SchemaVersion invalidates every existing cache entry when bumped. Bump
// it whenever the cycle engine's behaviour changes — i.e. in the same
// change that regenerates the golden bit-identity files — or when the
// key derivation or entry layout changes.
//
// History: 1 keyed runs by manager name strings; 2 keys them by the
// canonical spec.RunSpec JSON.
const SchemaVersion = 2

// HashJSON fingerprints any plain data value as FNV-1a over its JSON
// encoding, rendered as 16 hex digits. It is the shared helper behind
// run keys and checkpoint prefix keys; values must marshal cleanly
// (plain config/parameter structs always do).
func HashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	var h uint64 = 1469598103934665603
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// keyEnvelope is what Key actually hashes: the schema version alongside
// the canonical run description.
type keyEnvelope struct {
	Schema int          `json:"schema"`
	Run    spec.RunSpec `json:"run"`
}

// Key returns a run's content address under the current schema: FNV-1a
// over the canonical spec JSON. Canonicalization (spec.RunSpec.Canonical)
// is what makes equivalent requests — scheme aliases, display labels,
// knobs stated at their defaults — share one entry.
func Key(rs spec.RunSpec) string {
	return HashJSON(keyEnvelope{Schema: SchemaVersion, Run: rs.Canonical()})
}

// entry is the on-disk layout: the schema and key are stored alongside
// the result so a renamed, truncated, or stale file can never be
// mistaken for a hit.
type entry struct {
	Schema int        `json:"schema"`
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// ext is the entry file extension: an entry lives at <key>.json.
const ext = ".json"

// decodeEntry is the store codec: an entry is intact when it parses and
// carries the current schema and the key its file is named for.
func decodeEntry(name string, b []byte) (sim.Result, error) {
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		return sim.Result{}, err
	}
	if e.Schema != SchemaVersion || e.Key+ext != name {
		return sim.Result{}, fmt.Errorf("simcache: %s holds schema %d key %s", name, e.Schema, e.Key)
	}
	return e.Result, nil
}

// Stats is a point-in-time snapshot of one cache handle's traffic.
type Stats = store.Stats

// Cache is a directory of result entries, one file per key, kept in a
// store.Store. All methods are safe for concurrent use and nil-safe: a
// nil *Cache misses every Get and drops every Put, so call sites need
// no "is caching on?" branches.
type Cache struct {
	blobs *store.Store[sim.Result]

	// ledger, when set via SetLedger, receives one provenance record per
	// completed RunCached call (nil-safe).
	ledger *obs.Ledger
}

// store returns the backing store, nil for a nil cache (whose methods
// are then the store's nil no-ops).
func (c *Cache) store() *store.Store[sim.Result] {
	if c == nil {
		return nil
	}
	return c.blobs
}

// SetLedger installs the run-provenance ledger: every completed
// RunCached call through this handle appends one RunRecord describing
// how the run was satisfied (cached / forked@depth / cold), its retries
// and injected faults, and its cost. Call before submitting work; nil
// is the default (no provenance).
func (c *Cache) SetLedger(l *obs.Ledger) {
	if c == nil {
		return
	}
	c.ledger = l
}

// Ledger returns the installed provenance ledger (nil when provenance
// is off or the cache handle is nil).
func (c *Cache) Ledger() *obs.Ledger {
	if c == nil {
		return nil
	}
	return c.ledger
}

// SetHooks installs the fault-injection seam (chaos tests, ebsim
// -chaos). Call before submitting work; nil is the production default.
func (c *Cache) SetHooks(h faultinject.Hooks) { c.store().SetHooks(h) }

// SetResilience installs the persist retry policy and the incident
// monitor. The zero Policy retries with resilience.DefaultPolicy; a nil
// monitor discards incidents. Call before submitting work.
func (c *Cache) SetResilience(p resilience.Policy, mon *resilience.Monitor) {
	c.store().SetResilience(p, mon)
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	blobs, err := store.Open(dir, store.Scheme[sim.Result]{
		Name: "simcache", Fault: "cache", Ext: ext, Decode: decodeEntry,
	})
	if err != nil {
		return nil, err
	}
	return &Cache{blobs: blobs}, nil
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string { return c.store().Dir() }

// Path returns the entry file for a key.
func (c *Cache) Path(key string) string { return c.store().Path(key + ext) }

// Get returns the cached result for key, if a valid entry exists.
func (c *Cache) Get(key string) (sim.Result, bool) {
	return c.store().Get(context.Background(), key+ext)
}

// Put persists a result under key by the store's write rule: a valid
// entry already on disk is kept, anything else is replaced through a
// temp file and an atomic rename, so concurrent writers and killed
// processes leave either the old entry or the new one, never a torn
// file.
func (c *Cache) Put(key string, r sim.Result) error {
	if c == nil {
		return nil
	}
	b, err := encodeEntry(key, r)
	if err != nil {
		return err
	}
	return c.blobs.Put(key+ext, b)
}

func encodeEntry(key string, r sim.Result) ([]byte, error) {
	b, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Result: r})
	if err != nil {
		return nil, fmt.Errorf("simcache: marshal %s: %w", key, err)
	}
	return b, nil
}

// Len counts the entries on disk.
func (c *Cache) Len() int { return c.store().Len() }

// Stats returns this handle's traffic counters.
func (c *Cache) Stats() Stats { return c.store().Stats() }

// Instrument registers the cache's traffic counters with an obs
// registry as ebm_simcache_*_total (hits, misses, writes, corrupt,
// write_fails, write_evictions, bytes_written).
func (c *Cache) Instrument(reg *obs.Registry) { c.store().Instrument(reg) }

// ledgerRecord folds one completed run into its provenance record.
func ledgerRecord(rs spec.RunSpec, key string, trail *obs.Trail, res sim.Result, wall time.Duration) obs.RunRecord {
	names := make([]string, len(rs.Apps))
	for i := range rs.Apps {
		names[i] = rs.Apps[i].Name
	}
	rec := obs.RunRecord{
		CacheSchema: SchemaVersion,
		Fingerprint: key,
		Scheme:      rs.Scheme.String(),
		Apps:        strings.Join(names, "_"),
		Cycles:      res.Cycles,
		WallNs:      wall.Nanoseconds(),
	}
	trail.Fill(&rec)
	return rec
}

// RunCached executes a simulation through the shared layers: serve from
// the cache when possible, otherwise submit to the pool (the Default
// pool when r is nil) with singleflight on the spec key — identical
// concurrent requests share one execution — and persist the result.
// run overrides the execution (tests, custom assembly); nil executes
// the spec itself (sim.Execute), which is the normal path. The context
// cancels cooperatively: the wait, the simulation (at its next window
// boundary), and the retry sleeps all observe it, and a cancelled run is
// counted on the cache's resilience monitor. Cache write failures are
// retried per the cache's policy and then deliberately non-fatal (the
// result is still perfectly good); they surface through store.Warnf, Stats,
// and the instrumented counters instead.
func RunCached(ctx context.Context, c *Cache, r *runner.Runner, pri int, rs spec.RunSpec, run func(context.Context) (sim.Result, error)) (sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if run == nil {
		run = func(ctx context.Context) (sim.Result, error) { return sim.Execute(ctx, rs) }
	}
	key := Key(rs)
	ctx, sp := obs.StartSpan(ctx, "run", obs.A("key", key), obs.A("scheme", rs.Scheme.String()))
	defer sp.End()
	// The trail rides the run's context: the layers below (checkpoint
	// forking, retry policies, fault-injected I/O) mark what happened,
	// and the completed run folds it into one ledger record. A dedup
	// waiter's closure runs under the first submitter's context, so its
	// own trail stays un-executed and its record reads "cached" — one
	// honest record per RunCached call, one execution per singleflight.
	// A caller that already attached a trail (a dsweep worker deriving
	// the outcome it reports upstream) shares it instead of being
	// shadowed by a fresh one.
	var trail *obs.Trail
	if c.Ledger() != nil {
		if t := obs.TrailFrom(ctx); t != nil {
			trail = t
		} else {
			ctx, trail = obs.WithTrail(ctx)
		}
	}
	start := time.Now()
	gs := sp.Child("cache.get")
	if res, ok := c.store().Get(ctx, key+ext); ok {
		gs.End()
		sp.Annotate("outcome", obs.OutcomeCached)
		if trail != nil {
			c.ledger.Append(ledgerRecord(rs, key, trail, res, time.Since(start)))
		}
		return res, nil
	}
	gs.End()
	if r == nil {
		r = runner.Default()
	}
	v, err := r.Do(ctx, "sim:"+key, pri, func() (any, error) {
		// A concurrent process (or a deduplicated predecessor in this
		// one) may have persisted the entry since the first lookup.
		if res, ok := c.store().Peek(ctx, key+ext); ok {
			return res, nil
		}
		obs.TrailFrom(ctx).MarkExecuted()
		ectx, es := obs.StartSpan(ctx, "execute")
		ectx, vf := withVolatileFlag(ectx)
		res, err := run(ectx)
		es.End()
		if err != nil {
			return nil, err
		}
		if vf.v.Load() {
			// A degraded (e.g. sandbox-fallback) result is returned to the
			// caller but never cached: the key promises the deterministic
			// result of the spec, and this run did not produce it.
			return res, nil
		}
		_, ps := obs.StartSpan(ctx, "cache.put")
		c.store().Persist(ctx, key+ext, func() ([]byte, error) { return encodeEntry(key, res) })
		ps.End()
		return res, nil
	})
	if err != nil {
		sp.Annotate("error", err.Error())
		if ctx.Err() != nil {
			c.store().Monitor().RunCancelled("sim:" + key)
		}
		return sim.Result{}, err
	}
	res := v.(sim.Result)
	if trail != nil {
		rec := ledgerRecord(rs, key, trail, res, time.Since(start))
		sp.Annotate("outcome", rec.OutcomeString())
		c.ledger.Append(rec)
	} else {
		sp.Annotate("outcome", "run")
	}
	return res, nil
}

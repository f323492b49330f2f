// Package ckpt is the prefix-checkpoint store: it persists engine
// snapshots taken at sampling-window boundaries and forks later runs
// from the deepest compatible one, making cold sweeps sub-linear.
//
// The insight it monetizes lives in spec.RunSpec.PrefixCanonical:
// nothing in the engine reads TotalCycles except the cycle-loop bound,
// so every run in a grid sweep that differs only in horizon executes
// the same deterministic prefix bit-for-bit. A checkpoint written at
// window w of one such run is therefore a valid fork point for all of
// them: restore, run the remaining cycles, and the Result is exactly
// what an uninterrupted run would have produced (proven by the golden
// bit-identity suite in internal/sim).
//
// Failure handling is a degradation ladder, never an abort and never a
// wrong result: a torn or corrupt envelope is skipped in favour of the
// next-deepest checkpoint; no usable checkpoint is a miss; a payload
// that fails to restore falls back to a fresh (cold) simulator; a
// snapshot that cannot be taken disables further writes for that run;
// a write that cannot be persisted is retried, then warned and
// counted. The checkpoints live in an internal/store directory, the
// same store under simcache, which owns the atomic writes, the write
// rule, the read ladder, the byte cap and the counters; this package is
// the key scheme over it: PrefixKey, the envelope codec, the write
// cadence and Execute.
package ckpt

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"ebm/internal/faultinject"
	"ebm/internal/obs"
	"ebm/internal/resilience"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/store"
)

// SchemaVersion invalidates every existing checkpoint when bumped.
// Bump it when the envelope layout or the key derivation changes.
// Engine-behaviour changes are already covered: the prefix key folds
// in simcache.SchemaVersion (bumped with the goldens) and restore
// validates sim.SnapshotVersion inside the payload.
const SchemaVersion = 1

// DefaultEvery is the write cadence: one checkpoint every this many
// sampling windows (plus the run-end window, which makes re-running
// the same spec at the same horizon near-free).
const DefaultEvery = 4

// prefixEnvelope is what PrefixKey hashes: both schema versions
// alongside the prefix-canonical run description.
type prefixEnvelope struct {
	Schema int          `json:"schema"`      // simcache.SchemaVersion: engine behaviour
	Ckpt   int          `json:"ckpt_schema"` // this package's layout
	Run    spec.RunSpec `json:"run"`
}

// PrefixKey returns the content address of a run's deterministic
// prefix: FNV-1a over the prefix-canonical spec JSON (the canonical
// form with TotalCycles cleared). Two runs with equal prefix keys
// execute bit-identically up to the shorter horizon, so they share
// checkpoints.
func PrefixKey(rs spec.RunSpec) string {
	return simcache.HashJSON(prefixEnvelope{
		Schema: simcache.SchemaVersion,
		Ckpt:   SchemaVersion,
		Run:    rs.PrefixCanonical(),
	})
}

// On-disk envelope ("EBCK" format, satellite-documented in DESIGN.md):
//
//	magic "EBCK" | version u8 | key len u8 | key bytes |
//	window u64 BE | payload len u64 BE | payload | FNV-1a u64 BE
//
// The trailing checksum covers every preceding byte, so a torn rename
// target, truncated file, or bit flip decodes as corrupt — which the
// ladder treats as "try the next-deepest checkpoint".
const (
	envelopeMagic   = "EBCK"
	envelopeVersion = 1
)

func encodeEnvelope(key string, window uint64, payload []byte) []byte {
	b := make([]byte, 0, len(envelopeMagic)+2+len(key)+16+len(payload)+8)
	b = append(b, envelopeMagic...)
	b = append(b, envelopeVersion, byte(len(key)))
	b = append(b, key...)
	b = binary.BigEndian.AppendUint64(b, window)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	h := fnv.New64a()
	h.Write(b)
	return binary.BigEndian.AppendUint64(b, h.Sum64())
}

func decodeEnvelope(b []byte) (key string, window uint64, payload []byte, err error) {
	fail := func(why string) (string, uint64, []byte, error) {
		return "", 0, nil, fmt.Errorf("ckpt: corrupt envelope: %s", why)
	}
	if len(b) < len(envelopeMagic)+2+16+8 {
		return fail("short file")
	}
	if string(b[:4]) != envelopeMagic {
		return fail("bad magic")
	}
	if b[4] != envelopeVersion {
		return fail(fmt.Sprintf("version %d", b[4]))
	}
	h := fnv.New64a()
	h.Write(b[:len(b)-8])
	if binary.BigEndian.Uint64(b[len(b)-8:]) != h.Sum64() {
		return fail("checksum mismatch")
	}
	keyLen := int(b[5])
	rest := b[6 : len(b)-8]
	if len(rest) < keyLen+16 {
		return fail("short header")
	}
	key = string(rest[:keyLen])
	rest = rest[keyLen:]
	window = binary.BigEndian.Uint64(rest[:8])
	plen := binary.BigEndian.Uint64(rest[8:16])
	rest = rest[16:]
	if uint64(len(rest)) != plen {
		return fail("payload length mismatch")
	}
	return key, window, rest, nil
}

// blobName is the file a (prefix, window) checkpoint lives in.
func blobName(key string, window uint64) string {
	return fmt.Sprintf("%s-w%06d%s", key, window, ext)
}

const ext = ".ckpt"

// snapshot is a decoded checkpoint: the window it was taken at and the
// engine snapshot payload.
type snapshot struct {
	window  uint64
	payload []byte
}

// decodeSnapshot is the store codec: a checkpoint is intact when its
// envelope checks out and names the key and window of its file.
func decodeSnapshot(name string, b []byte) (snapshot, error) {
	key, window, payload, err := decodeEnvelope(b)
	if err != nil {
		return snapshot{}, err
	}
	if blobName(key, window) != name {
		return snapshot{}, fmt.Errorf("ckpt: %s holds %s", name, blobName(key, window))
	}
	return snapshot{window, payload}, nil
}

// Stats is a point-in-time snapshot of one store handle's traffic.
type Stats struct {
	store.Stats
	Forks uint64 // runs started from a restored checkpoint
}

// Store is a directory of checkpoint files, one per (prefix, window),
// kept in a store.Store. All methods are safe for concurrent use and
// nil-safe: a nil *Store misses every lookup and drops every write, so
// call sites need no "is checkpointing on?" branches.
type Store struct {
	blobs *store.Store[snapshot]
	every uint64 // write cadence in windows; 0 = read-only
	forks obs.Counter
}

// store returns the backing store, nil for a nil handle (whose methods
// are then the store's nil no-ops).
func (st *Store) store() *store.Store[snapshot] {
	if st == nil {
		return nil
	}
	return st.blobs
}

// Open returns a store rooted at dir, creating it if needed, with the
// default write cadence.
func Open(dir string) (*Store, error) {
	blobs, err := store.Open(dir, store.Scheme[snapshot]{
		Name: "ckpt", Fault: "ckpt", Ext: ext, Decode: decodeSnapshot,
	})
	if err != nil {
		return nil, err
	}
	return &Store{blobs: blobs, every: DefaultEvery}, nil
}

// Dir returns the store root ("" for a nil store).
func (st *Store) Dir() string { return st.store().Dir() }

// SetEvery sets the write cadence: a checkpoint every n sampling
// windows (plus the run-end window). n == 0 makes the store read-only:
// existing checkpoints still serve forks, nothing new is written.
// Call before submitting work.
func (st *Store) SetEvery(n uint64) {
	if st == nil {
		return
	}
	st.every = n
}

// SetMaxBytes caps the store's on-disk footprint. After every write the
// oldest files (by modification time) are evicted until the total fits;
// 0 means unbounded. Call before submitting work.
func (st *Store) SetMaxBytes(n int64) { st.store().SetMaxBytes(n) }

// SetHooks installs the fault-injection seam (chaos tests, ebsim
// -chaos). Call before submitting work; nil is the production default.
func (st *Store) SetHooks(h faultinject.Hooks) { st.store().SetHooks(h) }

// SetResilience installs the persist retry policy and the incident
// monitor. The zero Policy retries with resilience.DefaultPolicy; a nil
// monitor discards incidents. Call before submitting work.
func (st *Store) SetResilience(p resilience.Policy, mon *resilience.Monitor) {
	st.store().SetResilience(p, mon)
}

// Stats returns the handle's traffic counters.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{Stats: st.blobs.Stats(), Forks: st.forks.Value()}
}

// Instrument registers the store's traffic counters with an obs
// registry: the store's ebm_ckpt_*_total set (hits, misses, writes,
// corrupt, write_fails, write_evictions, bytes_written) plus
// ebm_ckpt_forks_total.
func (st *Store) Instrument(reg *obs.Registry) {
	if st == nil || reg == nil {
		return
	}
	st.blobs.Instrument(reg)
	reg.RegisterCounter("ebm_ckpt_forks_total", "simulations forked from a restored checkpoint", &st.forks)
}

// Path returns the checkpoint file for a (prefix, window) pair.
func (st *Store) Path(key string, window uint64) string {
	return st.store().Path(blobName(key, window))
}

// Put persists a snapshot payload under (key, window), wrapped in the
// checksummed envelope, by the store's write rule: put-if-absent —
// checkpoints are deterministic functions of their key, so an intact
// file is already correct — through a temp file and an atomic rename,
// followed by the eviction pass, so the byte cap holds as an invariant
// on return (the just-written file itself is evictable when the cap
// demands it).
func (st *Store) Put(key string, window uint64, payload []byte) error {
	return st.store().Put(blobName(key, window), encodeEnvelope(key, window, payload))
}

// Best returns the payload of the deepest usable checkpoint for key at
// or before maxWindow. Candidates are tried deepest-first; a torn,
// corrupt, or foreign file is counted and skipped in favour of the next
// one (the degradation ladder), and exhausting them is a miss.
// Concurrent callers asking for the same file share one read.
func (st *Store) Best(key string, maxWindow uint64) (payload []byte, window uint64, ok bool) {
	return st.best(context.Background(), key, maxWindow)
}

// best is Best with the caller's context, whose provenance trail
// records injected read faults and whose tracer times the ladder walk.
func (st *Store) best(ctx context.Context, key string, maxWindow uint64) (payload []byte, window uint64, ok bool) {
	if st == nil {
		return nil, 0, false
	}
	_, sp := obs.StartSpan(ctx, "ckpt.best", obs.A("key", key))
	defer sp.End()
	type cand struct {
		name   string
		window uint64
	}
	var cands []cand
	prefix := key + "-w"
	for _, name := range st.blobs.Names(prefix) {
		w, err := strconv.ParseUint(strings.TrimSuffix(name[len(prefix):], ext), 10, 64)
		if err != nil || w > maxWindow {
			continue
		}
		cands = append(cands, cand{name, w})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].window > cands[j].window })
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	snap, ok := st.blobs.Get(ctx, names...)
	if !ok {
		sp.Annotate("miss", "true")
		return nil, 0, false
	}
	sp.Annotate("window", strconv.FormatUint(snap.window, 10))
	return snap.payload, snap.window, true
}

// sink builds the engine's CkptSink for one run: snapshot at every
// every-th window boundary plus the run-end boundary, skipping windows
// whose file already exists (put-if-absent means the snapshot encode
// cost is skipped too). A snapshot failure propagates, which makes the
// engine disable the sink for the rest of the run; a persist failure
// does not — the store absorbs it as a counted, warned degradation.
func (st *Store) sink(ctx context.Context, key string, totalWindows, every uint64) func(uint64, *sim.Simulator) error {
	return func(window uint64, s *sim.Simulator) error {
		if window%every != 0 && window != totalWindows {
			return nil
		}
		if st.blobs.Has(blobName(key, window)) {
			return nil
		}
		payload, err := s.SnapshotBytes()
		if err != nil {
			return err
		}
		st.blobs.Persist(ctx, blobName(key, window), func() ([]byte, error) {
			return encodeEnvelope(key, window, payload), nil
		})
		return nil
	}
}

// Execute runs a declarative run description through the checkpoint
// store: fork from the deepest usable checkpoint of the run's prefix
// when one exists, execute cold otherwise, and (unless the store is
// read-only) leave checkpoints behind for the next run that shares the
// prefix. A nil store is plain sim.Execute. Every rung of the failure
// ladder lands on a correct result: a checkpoint whose payload fails to
// restore falls back to a fresh simulator, and a run whose manager
// cannot snapshot simply stops writing.
func Execute(ctx context.Context, st *Store, rs spec.RunSpec) (sim.Result, error) {
	return ExecuteWith(ctx, st, rs, nil)
}

// ExecuteWith is Execute with a hook for adjusting the engine options
// after FromSpec (fault-injection hooks, a watchdog — ebsim's -chaos
// composes them with checkpointing this way). mutate runs before the
// checkpoint sink is attached and must not install its own CkptSink.
// A nil store still applies mutate and executes cold.
func ExecuteWith(ctx context.Context, st *Store, rs spec.RunSpec, mutate func(*sim.Options)) (sim.Result, error) {
	every := uint64(0)
	if st != nil {
		every = st.every
	}
	return executeCadence(ctx, st, rs, mutate, every)
}

// executeCadence is ExecuteWith with an explicit write cadence for this
// run (0 disables writes; restores are unaffected).
func executeCadence(ctx context.Context, st *Store, rs spec.RunSpec, mutate func(*sim.Options), every uint64) (sim.Result, error) {
	opts, err := sim.FromSpec(rs)
	if err != nil {
		return sim.Result{}, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	if st == nil {
		s, err := sim.New(opts)
		if err != nil {
			return sim.Result{}, err
		}
		_, ssp := obs.StartSpan(ctx, "simulate", obs.A("from", "cold"))
		defer ssp.End()
		return s.RunContext(ctx)
	}
	key := PrefixKey(rs)
	wc := opts.WindowCycles
	if wc == 0 {
		wc = sim.DefaultWindowCycles
	}
	totalWindows := rs.TotalCycles / wc
	if every != 0 {
		opts.CkptSink = st.sink(ctx, key, totalWindows, every)
	}
	s, err := sim.New(opts)
	if err != nil {
		return sim.Result{}, err
	}
	from := "cold"
	if payload, window, ok := st.best(ctx, key, totalWindows); ok {
		if rerr := s.RestoreBytes(payload); rerr != nil {
			// The envelope was intact but the payload was not (or came
			// from an incompatible engine): the simulator may be half
			// restored, so rebuild it and run cold.
			obs.TrailFrom(ctx).AddFault("ckpt-restore")
			st.blobs.Reject()
			s, err = sim.New(opts)
			if err != nil {
				return sim.Result{}, err
			}
		} else {
			st.forks.Inc()
			obs.TrailFrom(ctx).SetForked(window, SchemaVersion)
			from = fmt.Sprintf("forked@%d", window)
		}
	}
	_, ssp := obs.StartSpan(ctx, "simulate", obs.A("from", from))
	defer ssp.End()
	return s.RunContext(ctx)
}

// Runner adapts a store to simcache.RunCached's run override: the
// returned closure executes rs through the store. A nil store returns
// nil, which RunCached treats as "execute the spec directly" — so call
// sites thread the store through unconditionally.
func Runner(st *Store, rs spec.RunSpec) func(context.Context) (sim.Result, error) {
	if st == nil {
		return nil
	}
	return func(ctx context.Context) (sim.Result, error) {
		return Execute(ctx, st, rs)
	}
}

// RungRunner is Runner specialized for one rung of a successive-halving
// search: it forks from the deepest prefix checkpoint like Runner, but
// writes only the rung's run-end snapshot — the single fork point the
// next rung continues from — instead of the store's periodic cadence.
// final marks the last rung, which no continuation follows: it forks
// but writes nothing. A read-only store (SetEvery(0)) writes nothing
// either way, and a nil store returns nil like Runner.
func RungRunner(st *Store, rs spec.RunSpec, final bool) func(context.Context) (sim.Result, error) {
	if st == nil {
		return nil
	}
	return func(ctx context.Context) (sim.Result, error) {
		every := ^uint64(0) // no periodic writes: only the run-end window fires
		if final || st.every == 0 {
			every = 0
		}
		return executeCadence(ctx, st, rs, nil, every)
	}
}

package history

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Store is the experiment-store service layer: a concurrency-safe façade
// over a pluggable Backend that maintains an in-memory index of decoded
// records (app → version → run id), so Query and PersistentBottlenecks
// never re-read or re-unmarshal stored files per call. The paper's
// Section 6 calls for exactly this infrastructure for "storing, naming,
// and querying multi-execution performance data".
//
// All methods are safe for concurrent use. Records handed out by Load,
// LoadAll and Query are shared with the index and must be treated as
// read-only; the store interns one decoded copy per record, which also
// makes pointer identity usable as record identity downstream (the
// directive harvest cache keys on it).
type Store struct {
	backend Backend

	// wal is the write-ahead journal of durable stores (nil otherwise).
	// walMu serializes journal append + backend mutation per write, so
	// the journal's per-key fold always names the backend's final state.
	wal   *WAL
	walMu sync.Mutex

	mu       sync.RWMutex
	recs     map[RecordKey]*RunRecord
	issues   []ScanIssue
	recovery *RecoveryReport

	brk breaker
}

// ErrDown marks a write refused without touching the journal or the
// backend: the store's breaker is open, or a sharded store's owning
// shard is down. It arrives inside a transient BackendError.
var ErrDown = errors.New("history: store down")

// breaker is a Store's consecutive-failure circuit breaker, the one
// backend breaker per fault domain (DESIGN.md §9). Backend errors count
// (a miss is an answer, not a fault); once open, writes fail fast with
// ErrDown while index reads keep serving, and only a successful Ping
// closes it, so one lucky write cannot flap a broken backend back in.
type breaker struct {
	mu               sync.Mutex
	threshold, fails int
	open             bool
	opens            uint64
	cause            string // the last backend failure
}

// observe feeds one backend outcome into the breaker: success ends the
// failure streak, a backend error extends it.
func (b *breaker) observe(err error) {
	if err != nil && (!IsBackendError(err) || errors.Is(err, os.ErrNotExist)) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.fails = 0
		return
	}
	b.fails++
	b.cause = err.Error()
	if !b.open && b.fails >= b.threshold {
		b.open, b.opens = true, b.opens+1
	}
}

// refuse returns the fail-fast error while the breaker is open.
func (b *breaker) refuse(op string) error {
	if open, _, cause := b.state(); open {
		return &BackendError{Op: op, Err: fmt.Errorf("%w (breaker open; last failure: %s)", ErrDown, cause)}
	}
	return nil
}

// state snapshots whether the breaker is open, how often it opened, and
// the last backend failure.
func (b *breaker) state() (open bool, opens uint64, cause string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open, b.opens, b.cause
}

// Health reports the store as one fault domain, down while its breaker
// is open.
func (s *Store) Health() Health {
	open, opens, _ := s.brk.state()
	h := Health{Parts: 1, BreakerOpens: opens}
	if open {
		h.Down = 1
	}
	return h
}

// NewStore opens (creating if needed) a filesystem-backed store rooted
// at dir — the historical on-disk format, readable across tool sessions.
func NewStore(dir string) (*Store, error) {
	b, err := NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	return NewStoreWith(b)
}

// DurableOptions configures OpenStoreDurable.
type DurableOptions struct {
	// Create makes the store directory when absent instead of failing
	// (NewStore semantics with the recovery pass of OpenStoreDurable).
	Create bool
	// WAL enables the write-ahead journal under <dir>/wal: Save and
	// Delete append there before the backend mutation, and the journal
	// tail is replayed into the record files at the next open.
	WAL bool
	// WALOptions tunes the journal; the zero value means fsync on every
	// append and 4 MiB segments.
	WALOptions WALOptions
	// Wrap, when non-nil, wraps the filesystem backend before the store
	// is built over it — the seam the chaos tooling uses to interpose a
	// FaultBackend. The journal replays through the wrapped backend too.
	Wrap func(Backend) Backend
	// BreakerThreshold is the consecutive-backend-failure count that
	// opens the store's breaker (each shard's, in a sharded layout);
	// <= 0 means 3.
	BreakerThreshold int

	// The remaining fields apply only to sharded layouts (OpenSharded /
	// OpenStoreAuto); OpenStoreDurable ignores them.

	// WrapShard wraps each shard's backend individually, taking
	// precedence over Wrap — the seam for faulting a single shard.
	WrapShard func(shard int, b Backend) Backend
	// Replicas records the follower count the deployment expects per
	// shard in the layout manifest (0 = unreplicated). Informational for
	// the store itself; the replication layer reads it back.
	Replicas int
}

// OpenStoreDurable opens a filesystem-backed store rooted at dir,
// failing when the directory does not exist unless o.Create is set —
// read-only tools open this way so that a mistyped -store path surfaces
// as an error rather than as a silently empty store.
//
// The open runs crash recovery, the durability ladder of DESIGN.md §10:
// orphaned atomic-write temp files are swept, then the write-ahead
// journal is replayed (so a torn rename or a crash mid-write never
// loses an acknowledged record), then records the scan still cannot
// decode are moved into the quarantine/ subdirectory (with a REPORT.txt
// line each) instead of being silently skipped forever. The order
// matters — a record the journal can roll forward is repaired, not
// quarantined. The Recovery method reports what was done; quarantined
// files are restorable by moving them back. A store written before the
// journal existed (no wal/ directory) opens cleanly with an empty
// journal.
func OpenStoreDurable(dir string, o DurableOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	if !o.Create {
		fi, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("history: open store: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("history: open store: %s is not a directory", dir)
		}
	}
	fb, err := NewFSBackend(dir)
	if err != nil {
		return nil, err
	}
	b := Backend(fb)
	if o.Wrap != nil {
		b = o.Wrap(b)
	}
	rep := &RecoveryReport{}
	swept, err := fb.SweepTemp()
	rep.SweptTemp = swept
	if err != nil {
		return nil, fmt.Errorf("history: recover store: %w", err)
	}
	var wal *WAL
	if o.WAL {
		walDir := filepath.Join(dir, WALDirName)
		entries, scan, err := ReadWAL(walDir)
		if err != nil {
			return nil, fmt.Errorf("history: recover store: %w", err)
		}
		applied, err := replayWAL(b, entries)
		rep.WAL = &WALRecovery{
			Segments: scan.Segments,
			Entries:  scan.Entries,
			Replayed: applied,
			TornTail: scan.TornTail,
			Corrupt:  scan.Corrupt,
		}
		if err != nil {
			return nil, fmt.Errorf("history: recover store: %w", err)
		}
		// Every journaled write is folded into the record files now;
		// truncate the journal rather than replaying it forever.
		wal, err = StartWAL(walDir, o.WALOptions)
		if err != nil {
			return nil, err
		}
		// StartWAL bumped the journal generation; a promoted shard's
		// replication state tracks that generation (it is what fencing
		// advertises), so re-sync it. Keeps the pcfsck invariant — a
		// promoted replica/STATE.json epoch equals wal/EPOCH at rest —
		// true across restarts, not just right after promotion.
		if err := syncPromotedStateEpoch(dir, wal.Epoch()); err != nil {
			return nil, fmt.Errorf("history: recover store: %w", err)
		}
	}
	st, err := NewStoreWith(b)
	if err != nil {
		return nil, err
	}
	st.wal = wal
	if o.BreakerThreshold > 0 {
		st.brk.threshold = o.BreakerThreshold
	}
	if err := st.quarantinePass(fb, rep); err != nil {
		return nil, fmt.Errorf("history: recover store: %w", err)
	}
	st.mu.Lock()
	st.recovery = rep
	st.mu.Unlock()
	return st, nil
}

// NewMemStore creates a store over a fresh in-memory backend.
func NewMemStore() *Store {
	s, _ := NewStoreWith(NewMemBackend()) // a memory scan cannot fail
	return s
}

// NewStoreWith opens a store over any backend, indexing its current
// contents.
func NewStoreWith(b Backend) (*Store, error) {
	if b == nil {
		return nil, fmt.Errorf("history: nil backend")
	}
	s := &Store{backend: b, brk: breaker{threshold: 3}}
	if err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// Backend returns the storage engine beneath the store.
func (s *Store) Backend() Backend { return s.backend }

// Dir returns the store's directory for filesystem-backed stores and ""
// otherwise. Wrapping backends (FaultBackend, DurableOptions.Wrap) are
// seen through, so the directory survives fault injection — the session
// journal and quarantine paths must land inside the store either way.
func (s *Store) Dir() string {
	b := s.backend
	for {
		if fb, ok := b.(*FSBackend); ok {
			return fb.Dir()
		}
		w, ok := b.(interface{ Inner() Backend })
		if !ok {
			return ""
		}
		b = w.Inner()
	}
}

// Refresh rebuilds the index from a full backend scan, picking up
// records written behind the store's back. Corrupt or invalid entries
// are skipped and reported via ScanIssues.
func (s *Store) Refresh() error {
	entries, issues, err := s.backend.Scan()
	if err != nil {
		return &BackendError{Op: "scan", Err: err}
	}
	recs := make(map[RecordKey]*RunRecord, len(entries))
	for _, e := range entries {
		rec, err := decodeRecord(e.Data)
		if err != nil {
			issues = append(issues, ScanIssue{Name: e.Name, Err: err})
			continue
		}
		// Last entry wins; backends yield the authoritative name last
		// when one record is reachable under both legacy and escaped
		// names.
		recs[rec.Key()] = rec
	}
	s.mu.Lock()
	s.recs = recs
	s.issues = issues
	s.mu.Unlock()
	return nil
}

// ScanIssues returns the entries the last scan (or subsequent loads)
// skipped as unreadable or invalid.
func (s *Store) ScanIssues() []ScanIssue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ScanIssue, len(s.issues))
	copy(out, s.issues)
	return out
}

// decodeRecord unmarshals and validates one encoded record.
func decodeRecord(data []byte) (*RunRecord, error) {
	rec := &RunRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("history: unmarshal: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return rec, nil
}

// Save writes (or overwrites) a record. The index caches its own decoded
// copy, detached from the caller's pointer. While the breaker is open
// the write fails fast with ErrDown.
func (s *Store) Save(rec *RunRecord) (err error) {
	if err := rec.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("history: marshal: %w", err)
	}
	cached, err := decodeRecord(data)
	if err != nil {
		return err
	}
	if err := s.brk.refuse("put"); err != nil {
		return err
	}
	defer func() { s.brk.observe(err) }()
	key := cached.Key()
	if s.wal != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if err := s.wal.Append(WALEntry{
			Op:      walOpPut,
			App:     key.App,
			Version: key.Version,
			RunID:   key.RunID,
			Data:    data,
		}); err != nil {
			// The journal is the durability promise: if it cannot take
			// the entry, refuse the write before the backend sees it.
			return asBackendError("wal append", err)
		}
	}
	if err := s.backend.Put(key, data); err != nil {
		// The index must never contain a record the backend rejected:
		// return before touching s.recs, classified as a backend failure
		// so the service layer can degrade instead of blaming the caller.
		// In WAL mode the journaled intent must not win either — it was
		// never acknowledged — so append a compensating pre-image entry.
		s.compensate(key)
		return asBackendError("put", err)
	}
	s.mu.Lock()
	s.recs[key] = cached
	s.mu.Unlock()
	return nil
}

// PutBatch writes records in input order, stopping at the first
// failure. Every record is validated before anything is written, so a
// malformed batch fails whole without partial effects; a backend
// failure mid-batch leaves the earlier records saved and reports how
// many.
func (s *Store) PutBatch(recs []*RunRecord) (int, error) {
	for i, rec := range recs {
		if rec == nil {
			return 0, fmt.Errorf("history: batch record %d is nil", i)
		}
		if err := rec.Validate(); err != nil {
			return 0, fmt.Errorf("history: batch record %d: %w", i, err)
		}
	}
	for i, rec := range recs {
		if err := s.Save(rec); err != nil {
			return i, err
		}
	}
	return len(recs), nil
}

// compensate appends the pre-image of key to the journal after a failed
// backend mutation, so the replay fold resolves to the state the caller
// last had acknowledged rather than to the intent that just failed. A
// failed mutation can also leave the record file torn on disk, so
// compensate then tries to heal the backend in place; when that also
// fails the journal marks itself unsafe to compact, pinning the rotated
// segments until the next open's replay repairs the file.
//
// Callers hold walMu. compensate is best-effort by design: the write it
// compensates for has already been reported as failed.
func (s *Store) compensate(key RecordKey) {
	if s.wal == nil {
		return
	}
	e := WALEntry{Op: walOpDelete, App: key.App, Version: key.Version, RunID: key.RunID}
	s.mu.RLock()
	prev, ok := s.recs[key]
	s.mu.RUnlock()
	if ok {
		// Re-marshal the indexed copy: Save wrote exactly these bytes, so
		// the replayed file is byte-identical to the acknowledged state.
		data, err := json.MarshalIndent(prev, "", "  ")
		if err != nil {
			s.wal.markUnsafe()
			return
		}
		e = WALEntry{
			Op:      walOpPut,
			App:     key.App,
			Version: key.Version,
			RunID:   key.RunID,
			Data:    data,
		}
	}
	if err := s.wal.Append(e); err != nil {
		s.wal.markUnsafe()
		return
	}
	if _, err := replayWAL(s.backend, []WALEntry{e}); err != nil {
		// Could not heal in place (the backend may still be failing);
		// the journal must survive rotation until the next open fixes it.
		s.wal.markUnsafe()
	}
}

// Load reads one record by app, version and run id. The returned record
// is shared with the index: treat it as read-only.
func (s *Store) Load(app, version, runID string) (*RunRecord, error) {
	key := RecordKey{App: app, Version: version, RunID: runID}
	s.mu.RLock()
	rec, ok := s.recs[key]
	s.mu.RUnlock()
	if ok {
		return rec, nil
	}
	// Not indexed: fall through to the backend for records written
	// behind the store's back since the last Refresh.
	data, err := s.backend.Get(key)
	if err != nil {
		err = asBackendError("get", err)
	}
	s.brk.observe(err)
	if err != nil {
		return nil, err
	}
	rec, err = decodeRecord(data)
	if err != nil {
		return nil, err
	}
	if rec.Key() != key {
		// A legacy-named file can shadow a different key (the old
		// app-version-runid ambiguity); identity comes from the content.
		return nil, fmt.Errorf("history: load %s: record identifies as %s", key, rec.Key())
	}
	s.mu.Lock()
	if prev, ok := s.recs[key]; ok {
		rec = prev // another goroutine indexed it first; keep one copy
	} else {
		s.recs[key] = rec
	}
	s.mu.Unlock()
	return rec, nil
}

// Delete removes one record from the backend and the index. While the
// breaker is open the delete fails fast with ErrDown.
func (s *Store) Delete(app, version, runID string) (err error) {
	if err := s.brk.refuse("delete"); err != nil {
		return err
	}
	defer func() { s.brk.observe(err) }()
	key := RecordKey{App: app, Version: version, RunID: runID}
	if s.wal != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if err := s.wal.Append(WALEntry{
			Op:      walOpDelete,
			App:     key.App,
			Version: key.Version,
			RunID:   key.RunID,
		}); err != nil {
			return asBackendError("wal append", err)
		}
	}
	if err := s.backend.Delete(key); err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			// A journaled delete that the backend failed to perform must
			// not win the replay fold; restore the pre-image entry. (A
			// miss needs no compensation — absent is what was journaled.)
			s.compensate(key)
		}
		return asBackendError("delete", err)
	}
	s.mu.Lock()
	delete(s.recs, key)
	s.mu.Unlock()
	return nil
}

// WAL returns the store's write-ahead journal, or nil when the store was
// not opened durable.
func (s *Store) WAL() *WAL { return s.wal }

// SyncWAL flushes the journal to stable storage regardless of the sync
// policy — the shutdown barrier pcd runs before exit so an interval or
// none policy loses nothing on a graceful stop. A store without a
// journal has nothing to flush.
func (s *Store) SyncWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Sync()
}

// ApplyReplicated folds one replicated journal entry into the store: the
// entry is appended to this store's own journal (the follower's
// durability holds independently of the primary's) and the exact
// journaled bytes are written to the backend, so a replicated record
// file is byte-identical to the primary's. Re-applying an entry the
// store already reflects is a no-op in effect — replication retries and
// restarts converge rather than diverge.
func (s *Store) ApplyReplicated(e WALEntry) error {
	key := e.Key()
	var cached *RunRecord
	switch e.Op {
	case walOpPut:
		rec, err := decodeRecord(e.Data)
		if err != nil {
			return fmt.Errorf("history: replicated entry %s: %w", key, err)
		}
		if rec.Key() != key {
			return fmt.Errorf("history: replicated entry %s: record identifies as %s", key, rec.Key())
		}
		cached = rec
	case walOpDelete:
	default:
		return fmt.Errorf("history: replicated entry %s: unknown op %q", key, e.Op)
	}
	if s.wal != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if err := s.wal.Append(e); err != nil {
			return asBackendError("wal append", err)
		}
	}
	if e.Op == walOpDelete {
		if err := s.backend.Delete(key); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				s.compensate(key)
				return asBackendError("delete", err)
			}
		}
		s.mu.Lock()
		delete(s.recs, key)
		s.mu.Unlock()
		return nil
	}
	if err := s.backend.Put(key, e.Data); err != nil {
		s.compensate(key)
		return asBackendError("put", err)
	}
	s.mu.Lock()
	s.recs[key] = cached
	s.mu.Unlock()
	return nil
}

// ReplicaSnapshot captures a consistent image of the store for follower
// bootstrap: the journal position (epoch, seq) plus every record as a
// put entry carrying the exact stored bytes. The snapshot is taken under
// the journal lock, so it reflects a point between writes — a follower
// that installs it and then replays frames after seq converges to the
// primary. Requires a durable (journaled) store.
func (s *Store) ReplicaSnapshot() (epoch, seq uint64, entries []WALEntry, err error) {
	if s.wal == nil {
		return 0, 0, nil, fmt.Errorf("history: replica snapshot: store has no journal")
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	epoch = s.wal.Epoch()
	seq = s.wal.Stats().Appends
	s.mu.RLock()
	keys := make([]RecordKey, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	sortKeys(keys)
	entries = make([]WALEntry, 0, len(keys))
	for _, k := range keys {
		// Re-marshal the indexed copy: Save wrote exactly these bytes, so
		// the follower's record files come out byte-identical.
		data, merr := json.MarshalIndent(s.recs[k], "", "  ")
		if merr != nil {
			s.mu.RUnlock()
			return 0, 0, nil, fmt.Errorf("history: replica snapshot %s: %w", k, merr)
		}
		entries = append(entries, WALEntry{
			Op: walOpPut, App: k.App, Version: k.Version, RunID: k.RunID, Data: data,
		})
	}
	s.mu.RUnlock()
	return epoch, seq, entries, nil
}

// Close flushes and closes the store's journal (if any). The store's
// read side keeps working; further Save/Delete calls fail in WAL mode.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Keys returns every indexed record key, ordered by (app, version,
// run id).
func (s *Store) Keys() []RecordKey {
	s.mu.RLock()
	keys := make([]RecordKey, 0, len(s.recs))
	for k := range s.recs {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sortKeys(keys)
	return keys
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// List returns the stored records' display names
// (app[-version]-runid), sorted. Unreadable entries are skipped; see
// ScanIssues. The error return is kept for interface stability — an
// open store lists from its index and cannot fail.
func (s *Store) List() ([]string, error) {
	keys := s.Keys()
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k.String())
	}
	sort.Strings(out)
	return out, nil
}

// LoadAll returns every indexed record whose app (and version, when
// non-empty) matches, ordered by key. Records are shared with the
// index: treat them as read-only.
func (s *Store) LoadAll(app, version string) ([]*RunRecord, error) {
	s.mu.RLock()
	keys := make([]RecordKey, 0, len(s.recs))
	for k := range s.recs {
		if k.App != app {
			continue
		}
		if version != "" && k.Version != version {
			continue
		}
		keys = append(keys, k)
	}
	sortKeys(keys)
	out := make([]*RunRecord, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.recs[k])
	}
	s.mu.RUnlock()
	return out, nil
}

// asBackendError wraps err as a BackendError unless it already is one
// (the FaultBackend pre-classifies its injections).
func asBackendError(op string, err error) error {
	var be *BackendError
	if errors.As(err, &be) {
		return err
	}
	return &BackendError{Op: op, Err: err}
}

// Ping probes the backend with a cheap read. It returns nil while the
// engine answers (a miss counts as an answer), closing the breaker, and
// the failure otherwise — the probe that lets an open breaker recover
// without a restart.
func (s *Store) Ping() error {
	_, err := s.backend.Get(RecordKey{App: "\x00ping", RunID: "\x00ping"})
	if err == nil || errors.Is(err, os.ErrNotExist) {
		s.brk.mu.Lock()
		s.brk.fails, s.brk.open = 0, false
		s.brk.mu.Unlock()
		return nil
	}
	err = asBackendError("get", err)
	s.brk.observe(err)
	return err
}

// Key returns the record's store key.
func (r *RunRecord) Key() RecordKey {
	return RecordKey{App: r.App, Version: r.Version, RunID: r.RunID}
}

// syncPromotedStateEpoch rewrites a promoted shard's replica/STATE.json
// epoch to the journal's generation. StartWAL bumps the generation at
// every open, and the state file — the epoch a promoted node advertises
// and persists across restarts — must track it, or the node would fence
// against its own journal. The file is read generically (the replica
// package owns its schema) and patched in place; no state file, or an
// unpromoted one, is a no-op.
func syncPromotedStateEpoch(storeDir string, epoch uint64) error {
	spath := filepath.Join(storeDir, "replica", "STATE.json")
	data, err := os.ReadFile(spath)
	if err != nil {
		return nil // no replication state — nothing to sync
	}
	var st map[string]any
	if err := json.Unmarshal(data, &st); err != nil {
		return nil // torn state restarts from zero at the replica layer
	}
	if promoted, _ := st["promoted"].(bool); !promoted {
		return nil
	}
	if cur, ok := st["epoch"].(float64); ok && uint64(cur) == epoch {
		return nil
	}
	st["epoch"] = epoch
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := spath + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, spath)
}

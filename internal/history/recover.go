package history

import "fmt"

// QuarantinedEntry names one corrupt record OpenStoreDurable set aside, with
// the decode or read error that condemned it.
type QuarantinedEntry struct {
	// Name is the file basename, now under quarantine/.
	Name string
	// Reason is what was wrong with it.
	Reason string
}

func (q QuarantinedEntry) String() string { return fmt.Sprintf("%s: %s", q.Name, q.Reason) }

// WALRecovery describes what the write-ahead-journal replay at open did:
// how much journal there was, how many folded entries had to be applied
// to the record files (zero when the crash lost nothing), whether the
// last segment ended mid-frame (normal residue of dying mid-append), and
// any frames that were corrupt elsewhere than the tail (never normal).
type WALRecovery struct {
	Segments int
	Entries  int
	Replayed int
	TornTail bool
	Corrupt  []string
}

// Empty reports whether the replay found nothing worth mentioning.
func (w *WALRecovery) Empty() bool {
	return w == nil || (w.Replayed == 0 && !w.TornTail && len(w.Corrupt) == 0)
}

// RecoveryReport describes what crash recovery did when a store was
// opened: orphaned atomic-write temp files swept, the write-ahead
// journal replayed (durable stores only; see WALRecovery), and corrupt
// records quarantined (moved into quarantine/ with a REPORT.txt line
// each, not deleted — a human can inspect and restore them).
type RecoveryReport struct {
	SweptTemp   []string
	Quarantined []QuarantinedEntry
	WAL         *WALRecovery
	// Shards carries per-shard detail for sharded stores (nil for a
	// single store); the aggregate fields above fold every shard
	// together with shards/NN/-prefixed names.
	Shards []*ShardRecovery
}

// Empty reports whether recovery found nothing to do.
func (r *RecoveryReport) Empty() bool {
	if r == nil {
		return true
	}
	for _, sr := range r.Shards {
		if sr.Err != "" {
			return false
		}
	}
	return len(r.SweptTemp) == 0 && len(r.Quarantined) == 0 && r.WAL.Empty()
}

// Recovery returns the crash-recovery report of the OpenStoreDurable call that
// produced this store, or nil when the store was not opened through the
// recovering path (NewStore, NewMemStore, NewStoreWith).
func (s *Store) Recovery() *RecoveryReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recovery
}

// quarantinePass quarantines every entry the opening scan could not
// decode and rescans so the surviving index is clean, folding the moves
// into rep. It runs after the temp sweep and the journal replay, so only
// damage durability could not undo ends up quarantined. Entries that
// cannot be quarantined (a read-only store, say) stay behind as plain
// scan issues — recovery degrades to the old skip-and-report behaviour
// rather than failing the open.
func (s *Store) quarantinePass(b *FSBackend, rep *RecoveryReport) error {
	issues := s.ScanIssues()
	if len(issues) == 0 {
		return nil
	}
	for _, issue := range issues {
		if qerr := b.Quarantine(issue.Name, issue.Err.Error()); qerr != nil {
			continue
		}
		rep.Quarantined = append(rep.Quarantined, QuarantinedEntry{
			Name:   issue.Name,
			Reason: issue.Err.Error(),
		})
	}
	if len(rep.Quarantined) > 0 {
		// The quarantined files are gone from the scan now; rebuild the
		// index so ScanIssues reports only what recovery could not fix.
		if err := s.Refresh(); err != nil {
			return err
		}
	}
	return nil
}

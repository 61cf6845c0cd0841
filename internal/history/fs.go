package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FSBackend stores one JSON file per record in a directory.
//
// Files are named esc(app)-esc(version)-esc(runid).json, where esc
// percent-escapes '%', '-', path separators and control bytes in each
// component. The escaping makes the three components unambiguous: under
// the legacy scheme (raw app[-version]-runid.json) app "a-b" run "c" and
// app "a" version "b" run "c" collided on a-b-c.json. Legacy files are
// still read (Get falls back to the legacy name; Scan identifies every
// file by its JSON content, not its name) and are upgraded on the next
// Put of the same key.
type FSBackend struct {
	dir string

	// renameHook replaces os.Rename in Put when non-nil — the seam the
	// fault-injection tests use to fail the commit step of an atomic
	// write without touching the filesystem's behaviour.
	renameHook func(oldpath, newpath string) error
	// syncHook replaces syncDir when non-nil — the seam the durability
	// tests use to observe (or fail) the directory fsync that follows a
	// committed rename.
	syncHook func(dir string) error
	// fileSyncHook replaces the temp file's fsync in Put when non-nil —
	// the seam the durability tests use to observe (or fail) the data
	// sync that must precede the rename.
	fileSyncHook func(f *os.File) error
}

// syncDir fsyncs a directory, making a just-committed rename inside it
// durable across power loss. (The rename itself only orders the metadata
// in memory; the directory entry reaches the platter on its fsync.)
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sync fsyncs a directory, through the test hook when set.
func (b *FSBackend) sync(dir string) error {
	if b.syncHook != nil {
		return b.syncHook(dir)
	}
	return syncDir(dir)
}

// syncFile fsyncs an open file, through the test hook when set.
func (b *FSBackend) syncFile(f *os.File) error {
	if b.fileSyncHook != nil {
		return b.fileSyncHook(f)
	}
	return f.Sync()
}

// NewFSBackend opens (creating if needed) a record directory.
func NewFSBackend(dir string) (*FSBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: create store: %w", err)
	}
	return &FSBackend{dir: dir}, nil
}

// Dir returns the backend's directory.
func (b *FSBackend) Dir() string { return b.dir }

// Name implements Backend.
func (b *FSBackend) Name() string { return "fs:" + b.dir }

// escapeComponent makes one key component safe to embed in a file name:
// '%' (the escape lead), '-' (the component separator), slashes and
// control bytes become %XX. Escaped names are a single path element and
// never collide across distinct keys.
func escapeComponent(s string) string {
	var out strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '%' || c == '-' || c == '/' || c == '\\' || c < 0x20 || c == 0x7f {
			fmt.Fprintf(&out, "%%%02X", c)
			continue
		}
		out.WriteByte(c)
	}
	return out.String()
}

// fileName is the escaped-scheme basename for a key. Every key has
// exactly three '-'-separated segments (the version segment is empty for
// versionless records), so names parse unambiguously.
func fileName(key RecordKey) string {
	return escapeComponent(key.App) + "-" + escapeComponent(key.Version) + "-" +
		escapeComponent(key.RunID) + ".json"
}

// legacyFileIs reports whether the legacy-named file at path holds the
// record for key. A legacy name is ambiguous — app "a-b" run "c" and app
// "a" version "b" run "c" share a-b-c.json — so before reading or
// removing one, the JSON identity fields decide whose file it is.
func legacyFileIs(path string, key RecordKey) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var id struct {
		App     string `json:"app"`
		Version string `json:"version"`
		RunID   string `json:"run_id"`
	}
	if err := json.Unmarshal(data, &id); err != nil {
		return nil, false
	}
	if (RecordKey{App: id.App, Version: id.Version, RunID: id.RunID}) != key {
		return nil, false
	}
	return data, true
}

// legacyFileName is the pre-escaping basename (app[-version]-runid.json),
// or "" when a component cannot appear in a single legacy path element.
func legacyFileName(key RecordKey) string {
	for _, c := range []string{key.App, key.Version, key.RunID} {
		if strings.ContainsAny(c, "/\\") {
			return ""
		}
	}
	name := key.App
	if key.Version != "" {
		name += "-" + key.Version
	}
	return name + "-" + key.RunID + ".json"
}

// rename commits an atomic write, through the test hook when set.
func (b *FSBackend) rename(oldpath, newpath string) error {
	if b.renameHook != nil {
		return b.renameHook(oldpath, newpath)
	}
	return os.Rename(oldpath, newpath)
}

// Put implements Backend: an atomic write (unique temp file + rename)
// that removes the temp file on every failure path — write, close,
// chmod, and rename alike — and removes the key's legacy file, if any,
// so re-saving a record migrates it to the escaped scheme.
func (b *FSBackend) Put(key RecordKey, data []byte) error {
	tmp, err := os.CreateTemp(b.dir, ".put-*.tmp")
	if err != nil {
		return fmt.Errorf("history: write: %w", err)
	}
	tmpName := tmp.Name()
	committed := false
	defer func() {
		// Structural cleanup: whichever step fails, the temp file never
		// outlives the call. A crash between write and rename still
		// orphans it; SweepTemp reclaims those at the next OpenStoreDurable.
		if !committed {
			os.Remove(tmpName)
		}
	}()
	_, werr := tmp.Write(data)
	if werr == nil {
		// Fsync the data before the rename can publish it: rename
		// durability (the directory fsync below) is worthless if a power
		// loss can leave the renamed file's blocks unwritten — the record
		// would survive as a zero-length or torn file.
		werr = b.syncFile(tmp)
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmpName, 0o644)
	}
	if werr == nil {
		werr = b.rename(tmpName, filepath.Join(b.dir, fileName(key)))
	}
	if werr != nil {
		return fmt.Errorf("history: write: %w", werr)
	}
	committed = true
	// Make the rename durable: without the directory fsync a power loss
	// can forget the new directory entry even though the rename returned.
	if err := b.sync(b.dir); err != nil {
		return fmt.Errorf("history: write: sync dir: %w", err)
	}
	if legacy := legacyFileName(key); legacy != "" && legacy != fileName(key) {
		// Migrate: drop the key's legacy file — but only after checking
		// it is this key's (another key's escaped name can spell the
		// same bytes as this key's legacy name).
		path := filepath.Join(b.dir, legacy)
		if _, ours := legacyFileIs(path, key); ours {
			os.Remove(path)
		}
	}
	return nil
}

// Get implements Backend, reading the escaped name first and falling
// back to the legacy name for stores written before the escaped scheme.
func (b *FSBackend) Get(key RecordKey) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(b.dir, fileName(key)))
	if err == nil {
		return data, nil
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("history: load: %w", err)
	}
	legacy := legacyFileName(key)
	if legacy == "" {
		return nil, fmt.Errorf("history: load: %w", err)
	}
	data, ours := legacyFileIs(filepath.Join(b.dir, legacy), key)
	if !ours {
		// Missing, or a different key's file under a colliding name:
		// report the escaped-scheme miss; it is the canonical location.
		return nil, fmt.Errorf("history: load: %w", err)
	}
	return data, nil
}

// Delete implements Backend, removing whichever of the escaped and
// legacy files exist — the same escaped-then-legacy fallback Get reads
// through, so a record reachable only under its pre-escaping name is
// deletable too. A file squatting on the key's legacy name that cannot
// be parsed at all (it belongs to no key) is quarantined rather than
// left to shadow the name forever.
func (b *FSBackend) Delete(key RecordKey) error {
	name := fileName(key)
	removed := false
	data, err := os.ReadFile(filepath.Join(b.dir, name))
	switch {
	case err == nil:
		if otherKeysLegacyFile(data, key, name) {
			// Another key's legacy-named record spells this key's escaped
			// name (app "a-b" run "c" squats on (a, b, c)'s canonical
			// location); it is not this key's file, so leave it alone.
			break
		}
		rerr := os.Remove(filepath.Join(b.dir, name))
		if rerr != nil && !os.IsNotExist(rerr) {
			return fmt.Errorf("history: delete: %w", rerr)
		}
		removed = rerr == nil
	case !os.IsNotExist(err):
		return fmt.Errorf("history: delete: %w", err)
	}
	if legacy := legacyFileName(key); legacy != "" && legacy != fileName(key) {
		path := filepath.Join(b.dir, legacy)
		if data, readable := readJSONFile(path); readable {
			var id struct {
				App     string `json:"app"`
				Version string `json:"version"`
				RunID   string `json:"run_id"`
			}
			switch {
			case json.Unmarshal(data, &id) != nil:
				// Unparseable: whoever it was, it is not a readable record
				// of any key. Set it aside restorably (best-effort — the
				// delete outcome does not depend on it).
				b.Quarantine(legacy, "unparseable legacy-named file found by delete")
			case (RecordKey{App: id.App, Version: id.Version, RunID: id.RunID}) == key:
				lerr := os.Remove(path)
				if lerr != nil && !os.IsNotExist(lerr) {
					return fmt.Errorf("history: delete: %w", lerr)
				}
				removed = removed || lerr == nil
			}
			// A different key's file under the colliding name is left alone.
		}
	}
	if !removed {
		return fmt.Errorf("history: delete %s: %w", key, os.ErrNotExist)
	}
	if err := b.sync(b.dir); err != nil {
		return fmt.Errorf("history: delete: sync dir: %w", err)
	}
	return nil
}

// readJSONFile reads a file, reporting whether it exists and was
// readable.
func readJSONFile(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	return data, err == nil
}

// otherKeysLegacyFile reports whether data, stored under basename name,
// is a record of a key other than key whose legacy file name spells
// name — the one way a different key's file can legitimately occupy
// key's escaped-scheme location.
func otherKeysLegacyFile(data []byte, key RecordKey, name string) bool {
	var id struct {
		App     string `json:"app"`
		Version string `json:"version"`
		RunID   string `json:"run_id"`
	}
	if json.Unmarshal(data, &id) != nil {
		return false
	}
	k := RecordKey{App: id.App, Version: id.Version, RunID: id.RunID}
	return k != key && legacyFileName(k) == name
}

// QuarantineDir is the subdirectory OpenStoreDurable moves corrupt records
// into. Files in it are ignored by Scan; moving one back into the store
// directory (and reopening) restores the record.
const QuarantineDir = "quarantine"

// quarantineReport is the per-store log of what was quarantined and why.
const quarantineReport = "REPORT.txt"

// SweepTemp removes orphaned atomic-write temp files (".put-*.tmp") left
// behind by a crash between write and rename, returning the names it
// removed. Put never publishes a temp file, so any present when a store
// is opened is garbage by construction.
func (b *FSBackend) SweepTemp() ([]string, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, fmt.Errorf("history: sweep: %w", err)
	}
	var swept []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".put-") || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(b.dir, name)); err != nil {
			return swept, fmt.Errorf("history: sweep: %w", err)
		}
		swept = append(swept, name)
	}
	sort.Strings(swept)
	return swept, nil
}

// Quarantine moves the named store file into the quarantine/
// subdirectory and appends a line to quarantine/REPORT.txt recording the
// reason — corrupt data is set aside restorably, never deleted. name
// must be a bare basename as yielded by Scan.
func (b *FSBackend) Quarantine(name, reason string) error {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("history: quarantine: bad entry name %q", name)
	}
	qdir := filepath.Join(b.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("history: quarantine: %w", err)
	}
	if err := os.Rename(filepath.Join(b.dir, name), filepath.Join(qdir, name)); err != nil {
		return fmt.Errorf("history: quarantine: %w", err)
	}
	// The move is two directory mutations; fsync both so a power loss
	// cannot resurrect the corrupt file in the store (or lose it from the
	// quarantine).
	if err := b.sync(qdir); err != nil {
		return fmt.Errorf("history: quarantine: sync dir: %w", err)
	}
	if err := b.sync(b.dir); err != nil {
		return fmt.Errorf("history: quarantine: sync dir: %w", err)
	}
	// The report is advisory; failing to append must not fail the
	// recovery that just made the store readable again.
	f, err := os.OpenFile(filepath.Join(qdir, quarantineReport),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintf(f, "%s\t%s\n", name, reason)
		f.Close()
	}
	return nil
}

// Scan implements Backend: every .json file in the directory, unreadable
// files reported as issues. Escaped-scheme names sort after legacy names
// so that when a record exists under both, the escaped file wins the
// store's last-entry-wins indexing.
func (b *FSBackend) Scan() ([]ScanEntry, []ScanIssue, error) {
	dirEntries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("history: list: %w", err)
	}
	var names []string
	for _, e := range dirEntries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := strings.Contains(names[i], "%"), strings.Contains(names[j], "%")
		if ei != ej {
			return !ei // unescaped (legacy-looking) names first
		}
		return names[i] < names[j]
	})
	var entries []ScanEntry
	var issues []ScanIssue
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(b.dir, name))
		if err != nil {
			issues = append(issues, ScanIssue{Name: name, Err: err})
			continue
		}
		entries = append(entries, ScanEntry{Name: name, Data: data})
	}
	return entries, issues, nil
}

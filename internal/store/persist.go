package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"videodb/internal/object"
)

// Snapshot persistence: a single JSON document with a format version and
// a SHA-256 checksum over the payload, so corrupted or truncated files are
// detected on load rather than silently yielding a partial database.

const snapshotVersion = 1

type snapshot struct {
	Version  int              `json:"version"`
	Objects  []*object.Object `json:"objects"`
	Facts    []jsonFact       `json:"facts"`
	Checksum string           `json:"checksum"` // hex SHA-256 of payload
}

type jsonFact struct {
	Name string         `json:"name"`
	Args []object.Value `json:"args"`
}

// payload is the checksummed portion (everything except the checksum).
type payload struct {
	Version int              `json:"version"`
	Objects []*object.Object `json:"objects"`
	Facts   []jsonFact       `json:"facts"`
}

func (s *Store) buildPayload() payload {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := payload{Version: snapshotVersion}
	// Deterministic object order for reproducible snapshots.
	oids := make([]object.OID, 0, len(s.objects))
	for id := range s.objects {
		oids = append(oids, id)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, id := range oids {
		p.Objects = append(p.Objects, s.objects[id])
	}
	for _, n := range s.backend.Relations() { // already sorted
		s.backend.ScanFacts(n, nil, func(f Fact) bool {
			p.Facts = append(p.Facts, jsonFact{Name: f.Name, Args: f.Args})
			return true
		})
	}
	return p
}

// Save writes a snapshot of the store to w.
func (s *Store) Save(w io.Writer) error {
	return savePayload(w, s.buildPayload())
}

func savePayload(w io.Writer, p payload) error {
	body, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(body)
	snap := snapshot{
		Version:  p.Version,
		Objects:  p.Objects,
		Facts:    p.Facts,
		Checksum: hex.EncodeToString(sum[:]),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// Load replaces the contents of the store with a snapshot read from r. On
// any error the store is left unchanged. Durable (backend) stores refuse
// Load: replacing state behind the backend's log would desynchronize
// recovery.
//
// Decoding and verification happen outside the lock; the durability
// check, the state swap, the schema-version bump, and the reset
// notification then share one write-lock critical section, so no
// concurrent mutation is lost in a gap and plan caches see the new
// schema version.
func (s *Store) Load(r io.Reader) error {
	var snap snapshot
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return fmt.Errorf("store: unsupported snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	body, err := json.Marshal(payload{Version: snap.Version, Objects: snap.Objects, Facts: snap.Facts})
	if err != nil {
		return fmt.Errorf("store: re-encoding snapshot: %w", err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != snap.Checksum {
		return fmt.Errorf("store: snapshot checksum mismatch (corrupted file?)")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, volatile := s.backend.(*memBackend); !volatile {
		return fmt.Errorf("store: Load is not supported on a durable store")
	}

	// Build fresh state, then swap in. fresh is private to this call, so
	// locking its own mutex per Put/AddFact is cheap and cannot deadlock.
	fresh := NewWith()
	fresh.disableEntityIdx = s.disableEntityIdx
	fresh.disableTreeIdx = s.disableTreeIdx
	for _, o := range snap.Objects {
		if err := fresh.Put(o); err != nil {
			return err
		}
	}
	for _, f := range snap.Facts {
		fresh.AddFact(Fact{Name: f.Name, Args: f.Args})
	}

	s.objects = fresh.objects
	s.backend = fresh.backend
	s.entityIdx = fresh.entityIdx
	s.itreeOK = false
	// The relation set may have changed wholesale; invalidate cached
	// plans keyed on the schema version.
	s.schemaVer++
	// No per-mutation events can describe a wholesale swap; subscribers
	// (e.g. materialized views) must discard derived state.
	s.notify(Event{Kind: EventReset})
	return nil
}

// SaveFile writes a snapshot to the named file atomically (write to a
// temporary file in the same directory, then rename).
func (s *Store) SaveFile(path string) error {
	return writeSnapshotFile(path, s.buildPayload())
}

// writeSnapshotFile persists a snapshot atomically AND durably.
//
// Crash-ordering invariant: by the time this function returns, the
// snapshot is on disk under its final name even across a power failure,
// and a crash at any earlier instant leaves the previous file (if any)
// intact — never a named but partial export. That requires both fsyncs
// below: fsync(tmp) before the rename (otherwise the kernel may order the
// rename's metadata ahead of the data blocks, leaving a named but
// empty/partial file), and fsync of the parent directory after
// (otherwise the rename itself may not have reached the directory's
// on-disk entries). The temp file lives in the target's directory so the
// rename never crosses a filesystem.
func writeSnapshotFile(path string, p payload) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".videodb-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := savePayload(tmp, p); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadFile reads a snapshot from the named file.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Load(f)
}

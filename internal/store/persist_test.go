package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videodb/internal/object"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Stats(), s.Stats(); got != want {
		t.Errorf("stats after load = %+v, want %+v", got, want)
	}
	for _, oid := range s.OIDs() {
		a, b := s.Get(oid), loaded.Get(oid)
		if b == nil || !a.Equal(b) {
			t.Errorf("object %s differs after round trip: %v vs %v", oid, a, b)
		}
	}
	for _, rel := range s.Relations() {
		a, b := s.Facts(rel), loaded.Facts(rel)
		if len(a) != len(b) {
			t.Errorf("relation %s: %d vs %d facts", rel, len(a), len(b))
			continue
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Errorf("fact %d of %s differs: %v vs %v", i, rel, a[i], b[i])
			}
		}
	}
	// Indexes work after load.
	if got := loaded.IntervalsContaining("o1"); !oidsEqual(got, "gi1", "gi2") {
		t.Errorf("index after load = %v", got)
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := newTestStore(t)
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("snapshots should be byte-identical")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	s := newTestStore(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := []struct {
		name string
		data string
	}{
		{"truncated", good[:len(good)/2]},
		{"bit flip", strings.Replace(good, `"David"`, `"Давид"`, 1)},
		{"empty", ""},
		{"not json", "hello world"},
		{"bad version", strings.Replace(good, `"version":1`, `"version":99`, 1)},
	}
	for _, tc := range cases {
		fresh := New()
		fresh.Put(object.NewEntity("keep"))
		if err := fresh.Load(strings.NewReader(tc.data)); err == nil {
			t.Errorf("%s: Load should fail", tc.name)
		}
		// Failed load leaves the store unchanged.
		if !fresh.Has("keep") || fresh.Len() != 1 {
			t.Errorf("%s: failed load mutated the store", tc.name)
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	s := newTestStore(t)
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Errorf("Len after file round trip = %d, want %d", loaded.Len(), s.Len())
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory should contain only the snapshot, got %v", entries)
	}
	if err := loaded.LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadFile of missing path should fail")
	}
}

// TestSnapshotTempFilesCleanedUp guards the atomic-write path: replacing
// a snapshot, and a save whose rename fails, leave no temp file behind,
// and the failed save leaves the previous snapshot intact.
func TestSnapshotTempFilesCleanedUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	s := newTestStore(t)
	for i := 0; i < 2; i++ { // the second save replaces the first
		if err := s.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
	// Renaming a file onto a directory fails after the temp file is written.
	if err := os.Mkdir(filepath.Join(dir, "blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(filepath.Join(dir, "blocked")); err == nil {
		t.Fatal("SaveFile onto a directory should fail")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "db.json" && e.Name() != "blocked" {
			t.Errorf("stray file after saves: %s", e.Name())
		}
	}
	if err := New().LoadFile(path); err != nil {
		t.Errorf("snapshot unreadable after a failed save: %v", err)
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot decoder, the only
// import format: Load must never panic, and a failed Load must leave the
// store as it was.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := newTestStore(f).Save(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	for _, n := range []int{len(good), len(good) - 2, len(good) / 2, 1, 0} {
		f.Add(good[:n])
	}
	// A checksum-valid snapshot whose content is invalid (empty oid).
	buf.Reset()
	bad := payload{Version: snapshotVersion, Objects: []*object.Object{object.NewEntity("")}}
	if err := savePayload(&buf, bad); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		s.Put(object.NewEntity("keep"))
		s.AddFact(RefFact("r", "keep"))
		if err := s.Load(bytes.NewReader(data)); err == nil {
			return
		}
		if s.Len() != 1 || !s.Has("keep") || fmt.Sprint(s.Relations()) != "[r]" {
			t.Fatalf("failed Load changed the store: %v %v", s.OIDs(), s.Relations())
		}
	})
}

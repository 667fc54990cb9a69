package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"videodb/internal/interval"
	"videodb/internal/object"
)

func TestDurableDB(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutEntity("o1", map[string]object.Value{"name": object.Str("David")}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutInterval("gi1", interval.FromPairs(0, 30), map[string]object.Value{
		object.AttrEntities: object.RefSet("o1"),
	}); err != nil {
		t.Fatal(err)
	}
	db.Relate("in", "o1", "gi1")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutEntity("o2", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Entities()) != 2 || len(re.Intervals()) != 1 {
		t.Fatalf("recovered %v entities, %v intervals", re.Entities(), re.Intervals())
	}
	rs, err := re.Query("?- in(X, G).")
	if err != nil || len(rs.Rows) != 1 {
		t.Errorf("facts after recovery: %v %v", rs, err)
	}
	// Queries over recovered data behave normally.
	rs, err = re.Query("?- Interval(G), o1 in G.entities.")
	if err != nil || rs.Count() != 1 {
		t.Errorf("query after recovery: %v %v", rs, err)
	}
}

// TestOpenSegmentRefusesWALDirectory: a directory in the write-ahead-log
// layout of earlier builds must not open as an empty database, and the
// refusal must leave every file as it was.
func TestOpenSegmentRefusesWALDirectory(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"db.wal":      `{"seq":1,"op":"put","object":{"oid":"o1"},"crc":1}` + "\n",
		"db.snapshot": `{"version":1,"objects":[],"facts":[],"checksum":""}` + "\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenSegment(dir)
	if err == nil {
		db.Close()
		t.Fatal("OpenSegment opened a write-ahead-log directory")
	}
	for _, want := range []string{"db.wal", "db.snapshot", `\save`, "-db snapshot.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = string(body)
	}
	if !reflect.DeepEqual(got, files) {
		t.Errorf("refused open changed the directory: %q", got)
	}
}

func TestInMemoryDBCloseNoop(t *testing.T) {
	db := New()
	if err := db.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint on in-memory DB should fail")
	}
}

package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Crash-recovery fault injection: each test manufactures the on-disk
// state a crash at a specific instant would leave behind, reopens, and
// checks that exactly the acknowledged state is recovered (or that
// corruption is refused, never silently skipped).

func readDirNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, e := range entries {
		out[e.Name()] = true
	}
	return out
}

// TestTornTailTruncated: a crash mid-append leaves a partial final
// record; recovery keeps the acknowledged prefix and truncates the tear.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "a"))
	st.AddFactErr(fact("r", "b"))
	// Crash without Close; then tear the last record in half.
	tail := filepath.Join(dir, tailName)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir)
	if !re.HasFact(fact("r", "a")) {
		t.Fatal("first record lost")
	}
	if re.HasFact(fact("r", "b")) {
		t.Fatal("torn record resurrected")
	}
}

// TestMidTailCorruptionRejected: corruption before the final record is
// an error — silently skipping it would drop an acknowledged write while
// applying later ones.
func TestMidTailCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "aaaa"))
	st.AddFactErr(fact("r", "bbbb"))
	st.Close()
	tail := filepath.Join(dir, tailName)
	data, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	// Close flushed; the tail is empty. Rebuild a two-record tail by
	// reopening and writing again without flush.
	if len(data) == 0 {
		st2 := openTestStore(t, dir)
		st2.AddFactErr(fact("r", "cccc"))
		st2.AddFactErr(fact("r", "dddd"))
		data, err = os.ReadFile(tail)
		if err != nil {
			t.Fatal(err)
		}
	}
	mangled := strings.Replace(string(data), "cccc", "xxxx", 1)
	if mangled == string(data) {
		t.Fatal("test setup: pattern not found")
	}
	if err := os.WriteFile(tail, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-tail corruption must fail recovery, got %v", err)
	}
}

// TestCrashBetweenManifestAndTailTruncate: the flush published the new
// manifest but crashed before truncating the tail. The TailSeq watermark
// must make replay skip the already-baked records (no double-apply, no
// duplicates).
func TestCrashBetweenManifestAndTailTruncate(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "a"))
	st.AddFactErr(fact("r", "b"))
	st.DeleteFactErr(fact("r", "a"))
	tail := filepath.Join(dir, tailName)
	pre, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil { // flush: manifest published, tail truncated
		t.Fatal(err)
	}
	// Undo the truncation: restore the pre-flush tail content, as if the
	// crash hit between the manifest rename and the truncate.
	if err := os.WriteFile(tail, pre, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir)
	if got := factKeys(re, "r"); fmt.Sprint(got) != `[r("b")]` {
		t.Fatalf("replay not idempotent: %v", got)
	}
	if n := re.TotalFacts(); n != 1 {
		t.Fatalf("TotalFacts = %d, want 1 (double-applied?)", n)
	}
}

// TestOrphanSegmentCleanedUp: a crash after writing a segment file but
// before the manifest rename leaves an orphan; open must ignore and
// delete it.
func TestOrphanSegmentCleanedUp(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "a"))
	st.Checkpoint()
	st.Close()
	// Fabricate the orphans a crash mid-flush would leave.
	orphanSeg := filepath.Join(dir, "seg-00009999.seg")
	if err := os.WriteFile(orphanSeg, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphanObj := filepath.Join(dir, "obj-00009998.json")
	if err := os.WriteFile(orphanObj, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphanTmp := filepath.Join(dir, ".manifest-123.tmp")
	if err := os.WriteFile(orphanTmp, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir)
	if !re.HasFact(fact("r", "a")) {
		t.Fatal("state lost")
	}
	names := readDirNames(t, dir)
	for _, orphan := range []string{"seg-00009999.seg", "obj-00009998.json", ".manifest-123.tmp"} {
		if names[orphan] {
			t.Fatalf("orphan %s not cleaned up (have %v)", orphan, names)
		}
	}
}

// TestPartialCompactionRecovered: a crash after the compaction wrote its
// merged segment but before the manifest swap leaves the old manifest
// pointing at the old segments plus a merged orphan. Recovery must serve
// the old state and delete the orphan.
func TestPartialCompactionRecovered(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, WithCompactThreshold(1000))
	for round := 0; round < 3; round++ {
		st.AddFactErr(fact("r", fmt.Sprintf("k%d", round)))
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	before := factKeys(st, "r")
	namesBefore := readDirNames(t, dir)
	st.Close()

	// The merged segment a crashed compaction would have left: a valid
	// segment file whose name the manifest does not reference.
	merged := segInput{adds: map[string][]store.Fact{
		"r": {fact("r", "k0"), fact("r", "k1"), fact("r", "k2")},
	}}
	orphan := filepath.Join(dir, "seg-00000777.seg")
	if err := writeSegment(orphan, merged, 1<<14); err != nil {
		t.Fatal(err)
	}

	re := openTestStore(t, dir)
	if got := factKeys(re, "r"); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("recovered %v, want %v", got, before)
	}
	names := readDirNames(t, dir)
	if names["seg-00000777.seg"] {
		t.Fatal("partial-compaction orphan not removed")
	}
	for n := range namesBefore {
		if !names[n] && n != tailName {
			t.Fatalf("live file %s removed during orphan cleanup", n)
		}
	}
}

// TestCorruptManifestRejected and friends: checksummed files refuse to
// load when mangled, instead of serving partial state.
func TestCorruptFilesRejected(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "payload-value-1"))
	st.Put(object.NewEntity("e1"))
	st.Checkpoint()
	st.Close()

	mangle := func(t *testing.T, name, old, new string) func() {
		t.Helper()
		p := filepath.Join(dir, name)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Replace(string(data), old, new, 1)
		if out == string(data) {
			t.Fatalf("test setup: %q not in %s", old, name)
		}
		if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return func() {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 1 || man.ObjFile == "" {
		t.Fatalf("unexpected manifest %+v", man)
	}

	t.Run("manifest", func(t *testing.T) {
		restore := mangle(t, manifestName, `"tailSeq"`, `"tailSeX"`)
		defer restore()
		if _, err := Open(dir); err == nil {
			t.Fatal("corrupt manifest accepted")
		}
	})
	t.Run("segment-index", func(t *testing.T) {
		restore := mangle(t, man.Segments[0], `"relStats"`, `"relStatX"`)
		defer restore()
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupt segment index accepted: %v", err)
		}
	})
	t.Run("segment-truncated", func(t *testing.T) {
		p := filepath.Join(dir, man.Segments[0])
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-4], 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(p, data, 0o644)
		if _, err := Open(dir); err == nil {
			t.Fatal("truncated segment accepted")
		}
	})
	t.Run("object-file", func(t *testing.T) {
		restore := mangle(t, man.ObjFile, `"e1"`, `"eX"`)
		defer restore()
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupt object snapshot accepted: %v", err)
		}
	})
	// After restoring everything the directory opens again.
	re := openTestStore(t, dir)
	if !re.HasFact(fact("r", "payload-value-1")) || re.Get("e1") == nil {
		t.Fatal("state lost after restore")
	}
}

// TestCorruptBlockSurfacesReadError: block corruption is detected by the
// per-block CRC at read time and reported via BackendStats.ReadErrors
// (reads are under RLock; the error is latched, not panicked).
func TestCorruptBlockSurfacesReadError(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.AddFactErr(fact("r", "block-payload-aa"))
	st.Checkpoint()
	st.Close()
	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, man.Segments[0])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first block (right after the 8-byte magic)
	// without touching the index, so open succeeds but the block read
	// fails its CRC.
	data[9] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openTestStore(t, dir)
	if re.HasFact(fact("r", "block-payload-aa")) {
		t.Fatal("corrupt block served")
	}
	if bs := re.BackendStats(); bs.ReadErrors == 0 {
		t.Fatalf("read error not counted: %+v", bs)
	}
}

// TestWriteFailurePoisonsBackend: a tail append failure must refuse the
// mutation and every later one (fail-fast).
func TestWriteFailurePoisonsBackend(t *testing.T) {
	dir := t.TempDir()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	st.AddFactErr(fact("r", "a"))
	// Close the tail file behind the backend's back: the next append
	// fails at the OS level.
	b.tail.f.Close()
	if ok, err := st.AddFactErr(fact("r", "b")); err == nil || ok {
		t.Fatalf("append onto closed tail acknowledged: ok=%v err=%v", ok, err)
	}
	if ok, err := st.AddFactErr(fact("r", "c")); err == nil || ok {
		t.Fatalf("poisoned backend accepted a write: ok=%v err=%v", ok, err)
	}
	if err := st.Put(object.NewEntity("e1")); err == nil {
		t.Fatal("poisoned backend accepted an object write")
	}
	// Reads stay available.
	if !st.HasFact(fact("r", "a")) {
		t.Fatal("acknowledged fact lost after poisoning")
	}
	// Close surfaces the failure.
	if err := st.Close(); err == nil {
		t.Fatal("Close after poisoned write returned nil")
	}
	// Reopening recovers exactly the acknowledged prefix.
	re := openTestStore(t, dir)
	if !re.HasFact(fact("r", "a")) || re.HasFact(fact("r", "b")) {
		t.Fatal("recovery state wrong after poisoned session")
	}
}

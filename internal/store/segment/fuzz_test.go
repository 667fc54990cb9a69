package segment

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videodb/internal/object"
	"videodb/internal/store"
)

// fuzzDict is the small dictionary FuzzEachRecord decodes against.
var fuzzDict = []object.Value{object.Str("a"), object.Num(1), object.Ref("o1")}

// appendRecord encodes one block record: the arity, then a dictionary id
// per argument (the layout writeSegment produces).
func appendRecord(buf []byte, ids ...uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

// FuzzEachRecord feeds arbitrary bytes to the block record decoder. It
// must never panic, and when it accepts the input it must have consumed
// all of it: re-encoding the records it returned reads back the same
// records, from no more bytes than the input had (the decoder also
// accepts non-minimal varints).
func FuzzEachRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, 0, 1))
	f.Add(appendRecord(appendRecord(nil, 2), 1, 0, 2))
	f.Add(appendRecord(nil))
	f.Add([]byte{2, 0})          // truncated record
	f.Add([]byte{1, 7})          // id outside the dictionary
	f.Add([]byte{0x80, 0x80, 1}) // non-minimal arity
	f.Fuzz(func(t *testing.T, raw []byte) {
		var records [][]uint64
		err := eachRecord(raw, fuzzDict, func(args []object.Value) {
			ids := make([]uint64, len(args))
			for i, a := range args {
				ids[i] = dictID(t, a)
			}
			records = append(records, ids)
		})
		if err != nil {
			return
		}
		if len(raw) > 0 && len(records) == 0 {
			t.Fatalf("accepted %d bytes without a record", len(raw))
		}
		var again []byte
		for _, ids := range records {
			again = appendRecord(again, ids...)
		}
		if len(again) > len(raw) {
			t.Fatalf("%d records re-encode to %d bytes, more than the %d read", len(records), len(again), len(raw))
		}
		n := 0
		if err := eachRecord(again, fuzzDict, func(args []object.Value) {
			if len(args) != len(records[n]) {
				t.Fatalf("record %d: arity %d, want %d", n, len(args), len(records[n]))
			}
			for i, a := range args {
				if id := dictID(t, a); id != records[n][i] {
					t.Fatalf("record %d arg %d: id %d, want %d", n, i, id, records[n][i])
				}
			}
			n++
		}); err != nil || n != len(records) {
			t.Fatalf("re-encoded records: %d of %d decoded, err %v", n, len(records), err)
		}
	})
}

// dictID returns the fuzz dictionary position of a decoded value.
func dictID(t *testing.T, v object.Value) uint64 {
	for i, d := range fuzzDict {
		if d.Equal(v) {
			return uint64(i)
		}
	}
	t.Fatalf("decoded %v, not a dictionary value", v)
	return 0
}

// FuzzReplayTail replays arbitrary bytes as a tail log. It must never
// panic; the records it applies come in strictly increasing Seq order,
// all above the watermark, and the sequence it returns covers them.
func FuzzReplayTail(f *testing.F) {
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.log")
	tl, err := openTail(seed, 0, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []tailRecord{
		{Op: tailAddFact, Fact: tailFactOf(store.NewFact("edge", object.Str("a"), object.Str("b")))},
		{Op: tailDelFact, Fact: tailFactOf(store.NewFact("edge", object.Str("a"), object.Str("b")))},
		{Op: tailDelObj, OID: "o1"},
	} {
		if err := tl.append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := tl.close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(0))
	f.Add(valid, uint64(2))
	f.Add(valid[:len(valid)-5], uint64(0))          // torn final record
	f.Add(append(valid, valid...), uint64(0))       // replayed records
	f.Add([]byte("{\"seq\":1}\n\n{}\n"), uint64(0)) // bad checksums
	f.Fuzz(func(t *testing.T, data []byte, after uint64) {
		path := filepath.Join(dir, "fuzz.log") // one file per worker process, rewritten per input
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var applied []uint64
		last, err := replayTail(path, after, func(rec tailRecord) error {
			if rec.Seq <= after {
				t.Fatalf("applied record %d at or below the watermark %d", rec.Seq, after)
			}
			if n := len(applied); n > 0 && rec.Seq <= applied[n-1] {
				t.Fatalf("applied record %d after %d", rec.Seq, applied[n-1])
			}
			applied = append(applied, rec.Seq)
			return nil
		})
		if err != nil {
			return
		}
		if last < after || (len(applied) > 0 && last < applied[len(applied)-1]) {
			t.Fatalf("returned sequence %d, watermark %d, applied %v", last, after, applied)
		}
	})
}

// wrapFooter is a 36-byte segment whose footer names an index at offset
// 1 of length 2⁶⁴−1: offset plus length wraps to 0, which a naive
// off+len > size bound lets through to a make of 2⁶⁴−1 bytes.
func wrapFooter() []byte {
	b := []byte(segMagic)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
	b = binary.LittleEndian.AppendUint32(b, 0)
	return append(b, segMagicEnd...)
}

// TestOpenSegmentFooterWrap: the wrapping footer is refused with the
// named error, not a makeslice panic.
func TestOpenSegmentFooterWrap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrap.seg")
	if err := os.WriteFile(path, wrapFooter(), 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := openSegment(1, path)
	if err == nil {
		sr.close()
		t.Fatal("a footer whose index wraps past the file end was accepted")
	}
	if !strings.Contains(err.Error(), "index out of bounds") {
		t.Fatalf("err = %v, want index out of bounds", err)
	}
}

// FuzzOpenSegment feeds arbitrary bytes to the segment reader: opening
// the file, loading its dictionary and decoding every block must each
// either fail or succeed, never panic.
func FuzzOpenSegment(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.seg")
	in := segInput{
		adds: map[string][]store.Fact{"edge": {
			store.NewFact("edge", object.Str("a"), object.Str("b")),
			store.NewFact("edge", object.Ref("o1"), object.Num(2)),
		}},
		tombs: map[string][]tombRec{"edge": {{Key: "edge(\"c\")", Arity: 1}}},
	}
	if err := writeSegment(path, in, 16); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated footer
	f.Add(wrapFooter())
	f.Fuzz(func(t *testing.T, data []byte) {
		// One file per worker process, rewritten per input.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sr, err := openSegment(1, path)
		if err != nil {
			return
		}
		defer sr.close()
		if _, err := sr.loadDict(); err != nil {
			return
		}
		for i := range sr.idx.Blocks {
			sr.readBlock(i, true)
		}
	})
}

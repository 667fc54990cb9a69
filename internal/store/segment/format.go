// Package segment implements the persistent storage backend of the
// store: an LSM-style layout of immutable, relation/key-ordered segment
// files (the EAVT analogue for the paper's fact relations R) with values
// interned into a per-segment on-disk dictionary, a byte-budgeted block
// cache with lazy fact loading, a manifest describing the live file set,
// and a small tail log holding the mutations since the last flush.
//
// The design goals, in order:
//
//   - the fact base is NOT resident in memory: scans and membership
//     probes fetch fixed-size blocks through the cache, so a node can
//     serve a corpus far larger than its block-cache budget;
//   - restart cost is O(active set), not O(history): recovery reads the
//     manifest, each segment's footer/index, the object snapshot, and
//     replays only the tail log (bounded by the flush threshold) —
//     never the full mutation history;
//   - every state transition is crash-atomic: segment and object files
//     are fsynced before the manifest that references them is renamed
//     into place, and the manifest's TailSeq lets replay skip tail
//     records already baked into segments, so a crash between manifest
//     publish and tail truncation never double-applies.
//
// Within a segment, facts are ordered by (relation, canonical fact key)
// and chunked into blocks; the block index carries each block's key
// range, so membership probes binary-search the block list and touch at
// most one block. Deletes of segment-resident facts are tombstones,
// stored eagerly in the index (they are assumed rare relative to adds);
// compaction merges all segments, resolves tombstones, and swaps the
// manifest atomically.
package segment

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"

	"videodb/internal/object"
	"videodb/internal/store"
)

// Segment file layout:
//
//	magic "VDBSEG01"                        (8 bytes)
//	blocks…        fact records, uvarint-encoded dictionary ids
//	dict           uvarint count, then per value: uvarint len + JSON
//	index          JSON segIndex
//	footer         indexOff, indexLen (8 bytes LE each),
//	               CRC32(index) (4 bytes LE), magic "10GESBDV" (8 bytes)
//
// Fact record inside a block: uvarint arity, then arity × uvarint
// dictionary ids. The relation name lives in the block's index entry,
// not in the record.

const (
	segMagic    = "VDBSEG01"
	segMagicEnd = "10GESBDV"
	footerLen   = 8 + 8 + 4 + 8
)

// blockMeta locates one block of one relation's facts.
type blockMeta struct {
	Rel      string `json:"rel"`
	Off      uint64 `json:"off"`
	Len      uint64 `json:"len"`
	Count    int    `json:"count"`
	CRC      uint32 `json:"crc"`
	FirstKey string `json:"firstKey"`
	LastKey  string `json:"lastKey"`
}

// tombRec is one tombstone: the canonical key of a fact deleted from an
// older segment, plus its arity (for the per-relation arity statistics).
type tombRec struct {
	Key   string `json:"key"`
	Arity int    `json:"arity"`
}

// relStat summarizes one relation inside a segment: how many facts were
// added, per arity; tombstones are counted from the Tombs list.
type relStat struct {
	Adds    int         `json:"adds"`
	Arities map[int]int `json:"arities"` // arity -> added facts
}

// segIndex is the JSON index section of a segment file. Tombstones are
// part of the index — they are loaded eagerly at open, while fact blocks
// load lazily through the cache.
type segIndex struct {
	Blocks    []blockMeta          `json:"blocks"`
	Tombs     map[string][]tombRec `json:"tombs,omitempty"`
	RelStats  map[string]relStat   `json:"relStats"`
	DictOff   uint64               `json:"dictOff"`
	DictLen   uint64               `json:"dictLen"`
	DictCount int                  `json:"dictCount"`
}

// segInput is the memtable's contribution to one segment: per relation,
// the added facts (any order; the writer sorts) and the tombstones.
type segInput struct {
	adds  map[string][]store.Fact
	tombs map[string][]tombRec
}

// writeSegment encodes in into a new segment file at path and fsyncs it.
// blockTarget bounds the encoded size of one block (soft: at least one
// fact per block).
func writeSegment(path string, in segInput, blockTarget int) (retErr error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); retErr == nil {
			retErr = cerr
		}
	}()

	// Dictionary: each distinct value appears once on disk; fact records
	// reference values by id. Ids are assigned in first-use order.
	dictIDs := make(map[string]uint64)
	var dictVals []object.Value
	intern := func(v object.Value) uint64 {
		k := v.String()
		if id, ok := dictIDs[k]; ok {
			return id
		}
		id := uint64(len(dictVals))
		dictIDs[k] = id
		dictVals = append(dictVals, v)
		return id
	}

	buf := make([]byte, 0, 1<<16)
	buf = append(buf, segMagic...)

	idx := segIndex{
		Tombs:    in.tombs,
		RelStats: make(map[string]relStat),
	}
	rels := make([]string, 0, len(in.adds))
	for rel := range in.adds {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		facts := append([]store.Fact(nil), in.adds[rel]...)
		keys := make([]string, len(facts))
		for i, f := range facts {
			keys[i] = f.Key()
		}
		sort.Sort(&factsByKey{facts: facts, keys: keys})

		st := relStat{Adds: len(facts), Arities: make(map[int]int)}
		var (
			block    []byte
			bm       blockMeta
			flushBlk = func() {
				if bm.Count == 0 {
					return
				}
				bm.Off = uint64(len(buf))
				bm.Len = uint64(len(block))
				bm.CRC = crc32.ChecksumIEEE(block)
				buf = append(buf, block...)
				idx.Blocks = append(idx.Blocks, bm)
				block = block[:0]
				bm = blockMeta{Rel: rel}
			}
		)
		bm.Rel = rel
		for i, f := range facts {
			st.Arities[len(f.Args)]++
			rec := binary.AppendUvarint(nil, uint64(len(f.Args)))
			for _, a := range f.Args {
				rec = binary.AppendUvarint(rec, intern(a))
			}
			if bm.Count > 0 && len(block)+len(rec) > blockTarget {
				flushBlk()
			}
			if bm.Count == 0 {
				bm.FirstKey = keys[i]
			}
			bm.LastKey = keys[i]
			bm.Count++
			block = append(block, rec...)
		}
		flushBlk()
		idx.RelStats[rel] = st
	}

	// Dictionary section.
	idx.DictOff = uint64(len(buf))
	idx.DictCount = len(dictVals)
	buf = binary.AppendUvarint(buf, uint64(len(dictVals)))
	for _, v := range dictVals {
		body, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("segment: encoding dictionary value: %w", err)
		}
		buf = binary.AppendUvarint(buf, uint64(len(body)))
		buf = append(buf, body...)
	}
	idx.DictLen = uint64(len(buf)) - idx.DictOff

	// Index + footer.
	idxBody, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("segment: encoding index: %w", err)
	}
	idxOff := uint64(len(buf))
	buf = append(buf, idxBody...)
	buf = binary.LittleEndian.AppendUint64(buf, idxOff)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(idxBody)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(idxBody))
	buf = append(buf, segMagicEnd...)

	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Sync()
}

// factsByKey co-sorts facts with their precomputed keys.
type factsByKey struct {
	facts []store.Fact
	keys  []string
}

func (s *factsByKey) Len() int           { return len(s.facts) }
func (s *factsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *factsByKey) Swap(i, j int) {
	s.facts[i], s.facts[j] = s.facts[j], s.facts[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// segmentReader serves one immutable segment file: the index is resident,
// the dictionary loads lazily on first block decode, and blocks load on
// demand through the store's cache.
type segmentReader struct {
	id   uint64
	path string
	f    *os.File
	idx  segIndex

	// byRel maps a relation to the positions of its blocks in idx.Blocks,
	// in key order (the writer emits them sorted).
	byRel map[string][]int

	// The dictionary loads lazily on first block decode; concurrent
	// readers under the store's read lock share the one load.
	dictOnce sync.Once
	dict     []object.Value
	dictErr  error
}

// openSegment validates a segment file's footer and index and returns a
// reader. The dictionary and fact blocks are not read.
func openSegment(id uint64, path string) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size() < int64(len(segMagic)+footerLen) {
		f.Close()
		return nil, fmt.Errorf("segment: %s: truncated file (%d bytes)", path, fi.Size())
	}
	head := make([]byte, len(segMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		f.Close()
		return nil, err
	}
	if string(head) != segMagic {
		f.Close()
		return nil, fmt.Errorf("segment: %s: bad magic", path)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, fi.Size()-footerLen); err != nil {
		f.Close()
		return nil, err
	}
	if string(footer[20:]) != segMagicEnd {
		f.Close()
		return nil, fmt.Errorf("segment: %s: bad footer magic (torn write?)", path)
	}
	idxOff := binary.LittleEndian.Uint64(footer[0:8])
	idxLen := binary.LittleEndian.Uint64(footer[8:16])
	idxCRC := binary.LittleEndian.Uint32(footer[16:20])
	if idxOff+idxLen > uint64(fi.Size()) {
		f.Close()
		return nil, fmt.Errorf("segment: %s: index out of bounds", path)
	}
	idxBody := make([]byte, idxLen)
	if _, err := f.ReadAt(idxBody, int64(idxOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(idxBody) != idxCRC {
		f.Close()
		return nil, fmt.Errorf("segment: %s: index checksum mismatch", path)
	}
	var idx segIndex
	if err := json.Unmarshal(idxBody, &idx); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s: decoding index: %w", path, err)
	}
	r := &segmentReader{id: id, path: path, f: f, idx: idx, byRel: make(map[string][]int)}
	for i, bm := range idx.Blocks {
		r.byRel[bm.Rel] = append(r.byRel[bm.Rel], i)
	}
	return r, nil
}

func (r *segmentReader) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// readBlock fetches and decodes one block (cache miss path). The caller
// provides the relation via the block's meta entry.
func (r *segmentReader) readBlock(i int) (*decodedBlock, error) {
	dict, err := r.loadDict()
	if err != nil {
		return nil, err
	}
	bm := r.idx.Blocks[i]
	raw := make([]byte, bm.Len)
	if _, err := r.f.ReadAt(raw, int64(bm.Off)); err != nil {
		return nil, fmt.Errorf("segment: %s block %d: %w", r.path, i, err)
	}
	if crc32.ChecksumIEEE(raw) != bm.CRC {
		return nil, fmt.Errorf("segment: %s block %d: checksum mismatch", r.path, i)
	}
	blk := &decodedBlock{
		facts: make([]store.Fact, 0, bm.Count),
		keys:  make([]string, 0, bm.Count),
		cost:  int64(bm.Len),
	}
	for len(raw) > 0 {
		arity, n := binary.Uvarint(raw)
		if n <= 0 {
			return nil, fmt.Errorf("segment: %s block %d: bad record", r.path, i)
		}
		raw = raw[n:]
		args := make([]object.Value, arity)
		for j := range args {
			id, n := binary.Uvarint(raw)
			if n <= 0 || id >= uint64(len(dict)) {
				return nil, fmt.Errorf("segment: %s block %d: bad dictionary reference", r.path, i)
			}
			raw = raw[n:]
			args[j] = dict[id]
		}
		f := store.Fact{Name: bm.Rel, Args: args}
		blk.facts = append(blk.facts, f)
		blk.keys = append(blk.keys, f.Key())
		// Decoded cost dominates the on-disk size; count both the raw
		// block and the rendered keys against the cache budget.
		blk.cost += int64(len(blk.keys[len(blk.keys)-1]))
	}
	if len(blk.facts) != bm.Count {
		return nil, fmt.Errorf("segment: %s block %d: decoded %d facts, index says %d",
			r.path, i, len(blk.facts), bm.Count)
	}
	return blk, nil
}

// loadDict reads and decodes the dictionary section once; concurrent
// callers share the load. Keeping it out of openSegment is what makes
// restart O(active set): a segment none of whose blocks are touched
// never pays for its dictionary.
func (r *segmentReader) loadDict() ([]object.Value, error) {
	r.dictOnce.Do(func() {
		raw := make([]byte, r.idx.DictLen)
		if _, err := r.f.ReadAt(raw, int64(r.idx.DictOff)); err != nil {
			r.dictErr = fmt.Errorf("segment: %s: reading dictionary: %w", r.path, err)
			return
		}
		count, n := binary.Uvarint(raw)
		if n <= 0 || count != uint64(r.idx.DictCount) {
			r.dictErr = fmt.Errorf("segment: %s: dictionary header mismatch", r.path)
			return
		}
		raw = raw[n:]
		vals := make([]object.Value, 0, count)
		for i := uint64(0); i < count; i++ {
			l, n := binary.Uvarint(raw)
			if n <= 0 || uint64(len(raw)-n) < l {
				r.dictErr = fmt.Errorf("segment: %s: truncated dictionary entry %d", r.path, i)
				return
			}
			raw = raw[n:]
			var v object.Value
			if err := json.Unmarshal(raw[:l], &v); err != nil {
				r.dictErr = fmt.Errorf("segment: %s: decoding dictionary entry %d: %w", r.path, i, err)
				return
			}
			raw = raw[l:]
			vals = append(vals, v)
		}
		r.dict = vals
	})
	return r.dict, r.dictErr
}

package segment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"videodb/internal/object"
	"videodb/internal/store"
)

// The tail log is the segment backend's short write-ahead log: every
// acknowledged mutation since the last flush, one CRC-protected JSON
// record per line. It never grows past the flush threshold (a flush
// bakes its records into a segment + object snapshot and truncates),
// which is what bounds recovery at O(active set). A torn final record — crash mid-append — is detected and
// truncated; corruption anywhere earlier is an error.

type tailOp string

const (
	tailAddFact tailOp = "addfact"
	tailDelFact tailOp = "delfact"
	tailPutObj  tailOp = "putobj"
	tailDelObj  tailOp = "delobj"
)

type tailFact struct {
	Name string         `json:"name"`
	Args []object.Value `json:"args"`
}

type tailRecord struct {
	Seq    uint64         `json:"seq"`
	Op     tailOp         `json:"op"`
	Fact   *tailFact      `json:"fact,omitempty"`
	Object *object.Object `json:"object,omitempty"`
	OID    string         `json:"oid,omitempty"`
	CRC    uint32         `json:"crc"`
}

func (r tailRecord) checksum() (uint32, error) {
	c := r
	c.CRC = 0
	body, err := json.Marshal(c)
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(body), nil
}

type tailLog struct {
	path string
	f    *os.File
	w    *bufio.Writer
	seq  uint64
	sync bool
}

// openTail opens (or creates) the tail log for appending. Replay happens
// separately, before the append handle is attached.
func openTail(path string, lastSeq uint64, syncEvery bool) (*tailLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &tailLog{path: path, f: f, w: bufio.NewWriter(f), seq: lastSeq, sync: syncEvery}, nil
}

func (t *tailLog) append(rec tailRecord) error {
	t.seq++
	rec.Seq = t.seq
	crc, err := rec.checksum()
	if err != nil {
		return err
	}
	rec.CRC = crc
	body, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := t.w.Write(append(body, '\n')); err != nil {
		return err
	}
	if err := t.w.Flush(); err != nil {
		return err
	}
	if t.sync {
		return t.f.Sync()
	}
	return nil
}

// truncate resets the log to empty after a flush baked its records into
// the manifest-referenced files. The sequence counter keeps running, so
// the TailSeq watermark stays monotonic across truncations.
func (t *tailLog) truncate() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	if err := t.f.Truncate(0); err != nil {
		return err
	}
	if _, err := t.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	t.w.Reset(t.f)
	return nil
}

func (t *tailLog) close() error {
	if t.f == nil {
		return nil
	}
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	err := t.f.Close()
	t.f = nil
	return err
}

// replayTail reads the log and calls apply for every record with
// Seq > afterSeq, in order. It returns the last sequence number seen
// (applied or skipped). A torn final record is truncated away. append
// numbers records strictly increasing, so a record whose Seq does not
// exceed its predecessor's is corruption, not a record to apply twice.
func replayTail(path string, afterSeq uint64, apply func(tailRecord) error) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return afterSeq, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()

	var (
		lastSeq    = afterSeq
		prevSeq    uint64
		goodOffset int64
		r          = bufio.NewReader(f)
	)
	for lineNo := 1; ; lineNo++ {
		line, err := r.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return 0, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			var rec tailRecord
			bad := json.Unmarshal(trimmed, &rec) != nil
			if !bad {
				want, cerr := rec.checksum()
				bad = cerr != nil || want != rec.CRC
			}
			if bad {
				rest, rerr := io.ReadAll(r)
				if rerr != nil {
					return 0, rerr
				}
				torn := atEOF || len(line) == 0 || line[len(line)-1] == '\n'
				if len(bytes.TrimSpace(rest)) > 0 || !torn {
					return 0, fmt.Errorf("segment: corrupt tail-log record at line %d", lineNo)
				}
				if err := os.Truncate(path, goodOffset); err != nil {
					return 0, fmt.Errorf("segment: truncating torn tail: %w", err)
				}
				return lastSeq, nil
			}
			if rec.Seq <= prevSeq {
				return 0, fmt.Errorf("segment: tail-log record at line %d: sequence %d does not follow %d", lineNo, rec.Seq, prevSeq)
			}
			prevSeq = rec.Seq
			if rec.Seq > afterSeq {
				if err := apply(rec); err != nil {
					return 0, fmt.Errorf("segment: replaying tail record %d: %w", rec.Seq, err)
				}
			}
			if rec.Seq > lastSeq {
				lastSeq = rec.Seq
			}
			goodOffset += int64(len(line))
		} else {
			goodOffset += int64(len(line))
		}
		if atEOF {
			return lastSeq, nil
		}
	}
}

// --- Object snapshot files ---------------------------------------------------

// objSnapshot is the object file format: every live object at flush
// time, checksummed like the store's snapshot format.
type objSnapshot struct {
	Version  int              `json:"version"`
	Objects  []*object.Object `json:"objects"`
	Checksum string           `json:"checksum"`
}

// tailFactOf converts to the wire form.
func tailFactOf(f store.Fact) *tailFact { return &tailFact{Name: f.Name, Args: f.Args} }

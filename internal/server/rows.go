package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"videodb/internal/object"
)

// The row writer. A row-bearing response (query, script and view bodies)
// is the bytes encoding/json would write for it, but its row arrays are
// appended value by value with object.Value.AppendJSON into a pooled
// buffer that is flushed to the connection every flushBytes. Only the
// small members around the rows go through encoding/json. Everything
// that can fail — the members' encoding and the rows' non-finite numbers
// — is checked before the status line is sent, so a body that cannot be
// encoded is a 500, never a 200 cut short.

// flushBytes is the buffered body size that triggers a write to the
// connection.
const flushBytes = 32 << 10

// maxPooledBody bounds the buffers returned to bodyPool: a body whose
// single row outgrew it is not kept around for the next request.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*flushBytes)
	return &b
}}

// rowBody is a JSON body under construction: encoded bytes interleaved
// with row arrays, parts[i] preceding rows[i].
type rowBody struct {
	parts [][]byte
	rows  [][][]object.Value
	err   error // first member-encoding failure
}

// cur is the encoded part being appended to: the one after the last
// row array.
func (b *rowBody) cur() *[]byte {
	if len(b.parts) == len(b.rows) {
		b.parts = append(b.parts, nil)
	}
	return &b.parts[len(b.parts)-1]
}

// raw appends literal JSON text.
func (b *rowBody) raw(s string) {
	p := b.cur()
	*p = append(*p, s...)
}

// members appends v's encoded members without the enclosing braces. v
// encodes to a JSON object with at least one member.
func (b *rowBody) members(v any) {
	enc, err := json.Marshal(v)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return
	}
	p := b.cur()
	*p = append(*p, enc[1:len(enc)-1]...)
}

// object appends {head's members, "rows": rows, tail's members}: the
// encoding of a struct that embeds head, then a "rows" field, then tail.
func (b *rowBody) object(head any, rows [][]object.Value, tail any) {
	b.raw("{")
	b.members(head)
	b.raw(`,"rows":`)
	b.rows = append(b.rows, rows)
	b.raw(",")
	b.members(tail)
	b.raw("}")
}

// result appends one query result.
func (b *rowBody) result(r ResultJSON) {
	b.object(r.resultHead, r.Rows, r.resultTail)
}

// writeResult answers 200 with one query result.
func writeResult(w http.ResponseWriter, r ResultJSON) {
	var body rowBody
	body.result(r)
	body.write(w, http.StatusOK)
}

// writeView answers 200 with one view read.
func writeView(w http.ResponseWriter, v ViewJSON) {
	var body rowBody
	body.object(v.viewHead, v.Rows, v.viewTail)
	body.write(w, http.StatusOK)
}

// check reports why the body cannot be encoded, if it cannot.
func (b *rowBody) check() error {
	if b.err != nil {
		return b.err
	}
	for _, rows := range b.rows {
		for _, r := range rows {
			for _, v := range r {
				if !v.Finite() {
					return fmt.Errorf("answer value %s has no JSON form", v)
				}
			}
		}
	}
	return nil
}

// write sends the body with the given status, followed by a newline as
// json.Encoder writes one, or a 500 if the body cannot be encoded.
func (b *rowBody) write(w http.ResponseWriter, status int) {
	if err := b.check(); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		if cap(buf) <= maxPooledBody {
			*bp = buf[:0]
			bodyPool.Put(bp)
		}
	}()
	for i, part := range b.parts {
		buf = append(buf, part...)
		if i == len(b.rows) {
			break // the closing part
		}
		buf = append(buf, '[')
		for j, r := range b.rows[i] {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for k, v := range r {
				if k > 0 {
					buf = append(buf, ',')
				}
				buf = v.AppendJSON(buf)
			}
			buf = append(buf, ']')
			if len(buf) >= flushBytes {
				if _, err := w.Write(buf); err != nil {
					return // the client is gone
				}
				buf = buf[:0]
			}
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '\n')
	_, _ = w.Write(buf) // the status is sent; a failed write means the client is gone
}

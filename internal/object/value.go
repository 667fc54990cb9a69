// Package object implements the value system and video objects (v-objects)
// of Section 5.2 of "A Database Approach for Modeling and Querying Video
// Data": a v-object is a pair (oid, [A1:v1, …, Am:vm]) whose attribute
// values are drawn from the smallest set containing atomic constants,
// object identities, restricted temporal constraints, and finite sets of
// values (Definition 6).
//
// Values are immutable; sets are kept in a canonical sorted, de-duplicated
// form so that structural equality coincides with set equality.
package object

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"videodb/internal/interval"
)

// OID is a logical object identity (Section 5.2). OIDs are pure syntactic
// names: equality of oids is equality of objects.
type OID string

// ValueKind discriminates the variants of Value.
type ValueKind uint8

// The value variants of Definition 6: atomic constants (strings and
// numbers of concrete domains), object identities, restricted dense-order
// constraints (represented canonically by the generalized interval of
// their solutions), and finite sets of values.
const (
	KindNull ValueKind = iota
	KindString
	KindNumber
	KindRef
	KindTemporal
	KindSet
)

var kindNames = [...]string{
	KindNull: "null", KindString: "string", KindNumber: "number",
	KindRef: "ref", KindTemporal: "temporal", KindSet: "set",
}

// String returns the kind name.
func (k ValueKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("ValueKind(%d)", uint8(k))
}

// Value is an immutable attribute value. The zero value is the null value
// (used for "attribute not present" results).
type Value struct {
	kind ValueKind
	str  string // KindString payload; KindRef oid
	num  float64
	temp interval.Generalized
	set  []Value // canonical: sorted by Compare, de-duplicated
}

// Null returns the null value.
func Null() Value { return Value{} }

// Str returns a string constant value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Num returns a numeric constant value.
func Num(f float64) Value { return Value{kind: KindNumber, num: f} }

// Ref returns an object-identity value.
func Ref(oid OID) Value { return Value{kind: KindRef, str: string(oid)} }

// Temporal returns a temporal-constraint value: the set of instants
// satisfying the restricted dense-order constraint, in canonical
// generalized-interval form.
func Temporal(g interval.Generalized) Value { return Value{kind: KindTemporal, temp: g} }

// Set returns a set value containing the given elements, canonicalized:
// sorted, de-duplicated, nulls dropped, and temporal elements merged into
// a single temporal value (their point-set union). The merge mirrors the
// paper's treatment of constraint-valued attributes — the collection of
// temporal constraints denotes their disjunction — and makes Union
// associative regardless of how values of mixed kinds combine.
func Set(elems ...Value) Value {
	s := make([]Value, 0, len(elems))
	var temporal Value
	for _, e := range elems {
		switch e.kind {
		case KindNull:
		case KindTemporal:
			temporal = temporal.Union(e)
		default:
			s = append(s, e)
		}
	}
	if !temporal.IsNull() {
		s = append(s, temporal)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Compare(s[j]) < 0 })
	out := s[:0]
	for i, e := range s {
		if i == 0 || s[i-1].Compare(e) != 0 {
			out = append(out, e)
		}
	}
	return Value{kind: KindSet, set: out}
}

// RefSet builds a set of object references, the common shape of the
// paper's multi-valued attributes (entities, host, guest, murderer, …).
func RefSet(oids ...OID) Value {
	elems := make([]Value, len(oids))
	for i, id := range oids {
		elems[i] = Ref(id)
	}
	return Set(elems...)
}

// Kind returns the value's kind.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsString returns the string payload and whether the value is a string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// AsNumber returns the numeric payload and whether the value is a number.
func (v Value) AsNumber() (float64, bool) { return v.num, v.kind == KindNumber }

// AsRef returns the oid payload and whether the value is a reference.
func (v Value) AsRef() (OID, bool) { return OID(v.str), v.kind == KindRef }

// AsTemporal returns the temporal payload and whether the value is
// temporal.
func (v Value) AsTemporal() (interval.Generalized, bool) {
	return v.temp, v.kind == KindTemporal
}

// Elems returns the canonical elements of a set value (nil for non-sets).
// The caller must not modify the returned slice.
func (v Value) Elems() []Value {
	if v.kind != KindSet {
		return nil
	}
	return v.set
}

// Len returns the cardinality of a set value, 0 for null, and 1 for any
// scalar.
func (v Value) Len() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindSet:
		return len(v.set)
	default:
		return 1
	}
}

// Compare defines a total order over values used for canonicalization:
// first by kind, then by payload. It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString, KindRef:
		return strings.Compare(v.str, w.str)
	case KindNumber:
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		default:
			return 0
		}
	case KindTemporal:
		return strings.Compare(v.temp.String(), w.temp.String())
	default: // KindSet
		for i := 0; i < len(v.set) && i < len(w.set); i++ {
			if c := v.set[i].Compare(w.set[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.set) < len(w.set):
			return -1
		case len(v.set) > len(w.set):
			return 1
		default:
			return 0
		}
	}
}

// Equal reports deep structural equality (which, thanks to canonical
// sets and intervals, is semantic equality).
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// ContainsElem reports whether the set value v contains the element e
// (the primitive constraint e ∈ v of the query language). Scalars are
// treated as singletons, so ContainsElem also answers e = v for scalars.
func (v Value) ContainsElem(e Value) bool {
	switch v.kind {
	case KindSet:
		i := sort.Search(len(v.set), func(i int) bool { return v.set[i].Compare(e) >= 0 })
		return i < len(v.set) && v.set[i].Equal(e)
	case KindNull:
		return false
	default:
		return v.Equal(e)
	}
}

// SubsetOf reports whether every element of v is an element of w, with
// scalars treated as singletons (the constraint s ⊆ X̃ of the query
// language).
func (v Value) SubsetOf(w Value) bool {
	switch v.kind {
	case KindNull:
		return true
	case KindSet:
		for _, e := range v.set {
			if !w.ContainsElem(e) {
				return false
			}
		}
		return true
	default:
		return w.ContainsElem(v)
	}
}

// Union merges two attribute values per the concatenation semantics of
// Section 6.1 (e.Ai = e1.Ai ∪ e2.Ai): temporal values union as point
// sets; anything else unions as sets with scalars lifted to singletons.
// Null is the identity.
func (v Value) Union(w Value) Value {
	switch {
	case v.IsNull():
		return w
	case w.IsNull():
		return v
	}
	if v.kind == KindTemporal && w.kind == KindTemporal {
		return Temporal(v.temp.Union(w.temp))
	}
	if v.Equal(w) {
		return v
	}
	elems := make([]Value, 0, v.Len()+w.Len())
	elems = appendElems(elems, v)
	elems = appendElems(elems, w)
	return Set(elems...)
}

func appendElems(dst []Value, v Value) []Value {
	if v.kind == KindSet {
		return append(dst, v.set...)
	}
	return append(dst, v)
}

// String renders the value: strings are quoted, refs are bare oids,
// temporal values use interval notation, sets use {…}.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindString:
		return strconv.Quote(v.str)
	case KindNumber:
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case KindRef:
		return v.str
	case KindTemporal:
		return v.temp.String()
	default:
		parts := make([]string, len(v.set))
		for i, e := range v.set {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
}

// jsonValue is the tagged JSON encoding of a Value.
type jsonValue struct {
	S   *string     `json:"s,omitempty"`
	N   *float64    `json:"n,omitempty"`
	Ref *string     `json:"ref,omitempty"`
	T   *string     `json:"t,omitempty"`
	Set []jsonValue `json:"set,omitempty"`
	// IsSet disambiguates the empty set from null (both encode no fields).
	IsSet bool `json:"isSet,omitempty"`
}

func (j jsonValue) toValue() (Value, error) {
	switch {
	case j.S != nil:
		return Str(*j.S), nil
	case j.N != nil:
		return Num(*j.N), nil
	case j.Ref != nil:
		return Ref(OID(*j.Ref)), nil
	case j.T != nil:
		g, err := interval.Parse(*j.T)
		if err != nil {
			return Value{}, err
		}
		return Temporal(g), nil
	case j.IsSet || j.Set != nil:
		elems := make([]Value, len(j.Set))
		for i, e := range j.Set {
			v, err := e.toValue()
			if err != nil {
				return Value{}, err
			}
			elems[i] = v
		}
		return Set(elems...), nil
	default:
		return Null(), nil
	}
}

// MarshalJSON implements json.Marshaler with a tagged encoding (see
// AppendJSON). A non-finite number has no JSON form and is an error.
func (v Value) MarshalJSON() ([]byte, error) {
	if !v.Finite() {
		return nil, fmt.Errorf("object: non-finite number in %s has no JSON form", v)
	}
	return v.AppendJSON(nil), nil
}

// Finite reports whether every number in the value (set elements
// included) is finite, i.e. whether the value has a JSON form.
func (v Value) Finite() bool {
	switch v.kind {
	case KindNumber:
		return !math.IsInf(v.num, 0) && !math.IsNaN(v.num)
	case KindSet:
		for _, e := range v.set {
			if !e.Finite() {
				return false
			}
		}
	}
	return true
}

// AppendJSON appends the value's tagged JSON encoding to b and returns
// the extended buffer: {"s":…}, {"n":…}, {"ref":…}, {"t":…},
// {"set":[…],"isSet":true} ({"isSet":true} when empty), or {} for null.
// The bytes are those encoding/json produces for the same encoding under
// its default HTML escaping, so rows appended here splice into a body
// the standard encoder writes around them. A non-finite number has no
// JSON form and is written as {}, the null value; callers that must
// reject it check Finite first.
func (v Value) AppendJSON(b []byte) []byte {
	switch v.kind {
	case KindString:
		return append(appendJSONString(append(b, `{"s":`...), v.str), '}')
	case KindNumber:
		if !v.Finite() {
			return append(b, "{}"...)
		}
		return append(appendJSONFloat(append(b, `{"n":`...), v.num), '}')
	case KindRef:
		return append(appendJSONString(append(b, `{"ref":`...), v.str), '}')
	case KindTemporal:
		return append(appendJSONString(append(b, `{"t":`...), v.temp.String()), '}')
	case KindSet:
		if len(v.set) == 0 {
			return append(b, `{"isSet":true}`...)
		}
		b = append(b, `{"set":[`...)
		for i, e := range v.set {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.AppendJSON(b)
		}
		return append(b, `],"isSet":true}`...)
	default:
		return append(b, "{}"...)
	}
}

// appendJSONFloat is encoding/json's float64 format: ES6 number-to-string,
// 'e' notation below 1e-6 and from 1e21 up, with a one-digit negative
// exponent unpadded.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString is encoding/json's string encoder with HTML escaping:
// <, > and & become \u003c, \u003e and \u0026, U+2028 and U+2029 are
// escaped, and each invalid UTF-8 byte becomes \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	var j jsonValue
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	parsed, err := j.toValue()
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

package object

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unicode/utf8"

	"videodb/internal/interval"
)

// legacyJSON is the tagged encoding as a struct for encoding/json — how
// Value was encoded before AppendJSON. json.Marshal of it is the
// reference AppendJSON must reproduce byte for byte.
func legacyJSON(v Value) jsonValue {
	switch v.kind {
	case KindString:
		return jsonValue{S: &v.str}
	case KindNumber:
		return jsonValue{N: &v.num}
	case KindRef:
		return jsonValue{Ref: &v.str}
	case KindTemporal:
		s := v.temp.String()
		return jsonValue{T: &s}
	case KindSet:
		set := make([]jsonValue, len(v.set))
		for i, e := range v.set {
			set[i] = legacyJSON(e)
		}
		return jsonValue{Set: set, IsSet: true}
	default:
		return jsonValue{}
	}
}

// checkJSON asserts AppendJSON equals the reference encoding, MarshalJSON
// under an HTML-escaping Encoder writes the same bytes, and the encoding
// decodes back to the value when its strings are valid UTF-8 (invalid
// bytes are replaced by U+FFFD on the wire, as encoding/json does).
func checkJSON(t *testing.T, v Value) {
	t.Helper()
	want, err := json.Marshal(legacyJSON(v))
	if err != nil {
		t.Fatalf("reference encoding of %s: %v", v, err)
	}
	if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%s)\n got %s\nwant %s", v, got, want)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode([]Value{v}); err != nil {
		t.Fatalf("Encode(%s): %v", v, err)
	}
	if wantEnc := "[" + string(want) + "]\n"; enc.String() != wantEnc {
		t.Fatalf("Encoder(%s)\n got %s\nwant %s", v, enc.String(), wantEnc)
	}
	if !validUTF8(v) {
		return
	}
	var back Value
	if err := back.UnmarshalJSON(want); err != nil {
		t.Fatalf("decode %s: %v", want, err)
	}
	if back.Kind() != v.Kind() || !back.Equal(v) {
		t.Fatalf("round trip: %s → %s → %s", v, want, back)
	}
}

func validUTF8(v Value) bool {
	switch v.kind {
	case KindString, KindRef:
		return utf8.ValidString(v.str)
	case KindSet:
		for _, e := range v.set {
			if !validUTF8(e) {
				return false
			}
		}
	}
	return true
}

// jsonEdgeValues are the values whose encoding departs from the obvious:
// HTML and control characters, line separators, invalid UTF-8, and the
// floats at encoding/json's 'e'-notation cutoffs.
func jsonEdgeValues() []Value {
	vals := []Value{
		Null(),
		Str(""), Str("plain"), Str(`<b>&"quoted"\</b>`),
		Str("\x00\x01\b\f\n\r\t\x1f\x7f"), Str("line para end"),
		Str("bad\xffutf8\xc3"), Str("héllo ∪ 世界"),
		Ref("o1"), Ref("a<b>&c"), Ref("g1+g2"),
		Temporal(interval.FromPairs(0, 10)), Temporal(interval.FromPairs(1.5, 2, 3, 4.25)),
		Temporal(interval.Empty()),
		Temporal(interval.New(interval.Span{Lo: math.Inf(-1), Hi: 3, LoOpen: true})),
		Set(), Set(Set()), Set(Str("<x>"), Num(1), Ref("r"), Set(Num(2), Null())),
		RefSet("e1", "e2", "e3"),
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456789,
		1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-300, 5e-324,
		1e20, 9.99999999999e20, 1e21, 1.5e21, 1e100, math.MaxFloat64, -1e21, -1e-7,
	} {
		vals = append(vals, Num(f))
	}
	return vals
}

func TestAppendJSONMatchesEncoder(t *testing.T) {
	for _, v := range jsonEdgeValues() {
		checkJSON(t, v)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		checkJSON(t, randomJSONValue(r, 2))
	}
}

// randomJSONValue draws a value of any kind, nesting sets depth deep.
func randomJSONValue(r *rand.Rand, depth int) Value {
	const alphabet = "ab<>&\"\\\x00\n é\xff"
	str := func() string {
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	switch k := r.Intn(6); {
	case k == 0:
		return Null()
	case k == 1:
		return Str(str())
	case k == 2:
		return Num(math.Ldexp(r.Float64()-0.5, r.Intn(160)-80))
	case k == 3:
		return Ref(OID(str()))
	case k == 4 || depth == 0:
		lo := float64(r.Intn(100))
		return Temporal(interval.FromPairs(lo, lo+r.Float64()*10))
	default:
		elems := make([]Value, r.Intn(4))
		for i := range elems {
			elems[i] = randomJSONValue(r, depth-1)
		}
		return Set(elems...)
	}
}

func TestMarshalJSONRejectsNonFinite(t *testing.T) {
	for _, v := range []Value{
		Num(math.NaN()), Num(math.Inf(1)), Num(math.Inf(-1)),
		Set(Str("x"), Num(math.Inf(1))), Set(Set(Num(math.NaN()))),
	} {
		if v.Finite() {
			t.Errorf("%s: Finite() = true", v)
		}
		if b, err := v.MarshalJSON(); err == nil {
			t.Errorf("%s: MarshalJSON = %s, want an error", v, b)
		}
		if _, err := json.Marshal(v); err == nil {
			t.Errorf("%s: json.Marshal succeeded", v)
		}
	}
}

// FuzzValueJSON: for any value built from the fuzzed parts, AppendJSON
// writes exactly what encoding/json writes for the tagged encoding, and
// the bytes decode back to the value.
func FuzzValueJSON(f *testing.F) {
	f.Add(uint8(1), "<a&b>", 1e21, "o1")
	f.Add(uint8(2), "", 1e-7, "")
	f.Add(uint8(5), " \xff", -0.0, "x\ny")
	f.Add(uint8(4), "t", 12.5, "r")
	f.Fuzz(func(t *testing.T, kind uint8, s string, n float64, ref string) {
		var v Value
		switch kind % 6 {
		case 0:
			v = Null()
		case 1:
			v = Str(s)
		case 2:
			v = Num(n)
		case 3:
			v = Ref(OID(ref))
		case 4:
			if math.IsNaN(n) {
				return
			}
			v = Temporal(interval.FromPairs(n, n+float64(len(s))))
		default:
			v = Set(Str(s), Num(n), Ref(OID(ref)), Set(Str(ref)))
		}
		if !v.Finite() {
			if _, err := v.MarshalJSON(); err == nil {
				t.Fatalf("%s: MarshalJSON accepted a non-finite number", v)
			}
			return
		}
		checkJSON(t, v)
	})
}

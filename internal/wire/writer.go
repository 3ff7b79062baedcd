package wire

import "strconv"

// Writer appends JSON to Buf. Punctuation and keys go in as literals (Raw),
// values through the typed methods; a value encoding/json would not copy
// verbatim declines the whole encoding — OK turns false and stays false —
// and what Buf then holds is to be thrown away.
type Writer struct {
	Buf      []byte
	declined bool
}

// OK reports whether every value so far was written as encoding/json writes
// it.
func (w *Writer) OK() bool { return !w.declined }

// Decline gives up the encoding: the value has a shape the caller's codec
// leaves to encoding/json (a nil slice, which it writes as null).
func (w *Writer) Decline() { w.declined = true }

// Raw appends literal JSON: braces, commas, `"key":`.
func (w *Writer) Raw(lit string) { w.Buf = append(w.Buf, lit...) }

// String appends s between quotes, or declines unless it is Plain.
func (w *Writer) String(s string) {
	if !Plain(s) {
		w.declined = true
		return
	}
	w.Buf = append(w.Buf, '"')
	w.Buf = append(w.Buf, s...)
	w.Buf = append(w.Buf, '"')
}

// Int appends a signed integer.
func (w *Writer) Int(v int64) { w.Buf = strconv.AppendInt(w.Buf, v, 10) }

// Uint appends an unsigned integer.
func (w *Writer) Uint(v uint64) { w.Buf = strconv.AppendUint(w.Buf, v, 10) }

// Bool appends true or false.
func (w *Writer) Bool(v bool) { w.Buf = strconv.AppendBool(w.Buf, v) }

// The Opt methods write an omitempty member — lit, which is `,"key":`, then
// the value — or nothing when the value is zero.

func (w *Writer) OptString(lit, s string) {
	if s != "" {
		w.Raw(lit)
		w.String(s)
	}
}

func (w *Writer) OptInt(lit string, v int64) {
	if v != 0 {
		w.Raw(lit)
		w.Int(v)
	}
}

func (w *Writer) OptUint(lit string, v uint64) {
	if v != 0 {
		w.Raw(lit)
		w.Uint(v)
	}
}

package wire

import (
	"bytes"
	"math"
	"math/bits"
)

// Scanner reads one JSON value whose shape the caller knows: a flat object,
// or an object holding an array of flat objects. The caller walks it —
// Object, then Key until it returns -1, a value method per key — and asks
// End at the end. Anything the package comment rules out declines the scan:
// every later call is a no-op returning zero, and End reports false. What a
// declined scan returned before is to be thrown away.
type Scanner struct {
	b        []byte
	i        int
	declined bool
}

// NewScanner scans b, which it only reads: strings come out as copies.
func NewScanner(b []byte) Scanner { return Scanner{b: b} }

// Decline gives up the scan: the destination has a shape the caller's codec
// leaves to encoding/json (a slice that already holds elements).
func (s *Scanner) Decline() { s.declined = true }

// peek skips white space and returns the byte after it, 0 at the end of the
// input (no JSON token starts with a NUL, so a literal one declines too).
func (s *Scanner) peek() byte {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, after any white space.
func (s *Scanner) expect(c byte) bool {
	if s.declined || s.peek() != c {
		s.declined = true
		return false
	}
	s.i++
	return true
}

// Object opens an object.
func (s *Scanner) Object() { s.expect('{') }

// Key moves to the next member of the open object and returns the index of
// its key in names, leaving the scanner at the member's value; it returns
// -1 once the object is closed, or the scan declined. A key must equal a
// name byte for byte and must not repeat. seen is the caller's record of the
// members read so far: zero when the object opens, one per object, at most
// 32 names.
func (s *Scanner) Key(names []string, seen *uint32) int {
	if s.declined {
		return -1
	}
	c := s.peek()
	if c == '}' {
		s.i++
		return -1
	}
	if *seen != 0 {
		if c != ',' {
			s.declined = true
			return -1
		}
		s.i++
		c = s.peek()
	}
	if c != '"' {
		s.declined = true
		return -1
	}
	s.i++
	rest := s.b[s.i:]
	// Try the names in order from the one after the last seen: an encoder
	// writes the fields in that order, so the first or second try matches.
	for k, j := 0, bits.Len32(*seen); k < len(names); k, j = k+1, j+1 {
		if j >= len(names) {
			j = 0
		}
		name := names[j]
		if len(rest) <= len(name) || rest[len(name)] != '"' || string(rest[:len(name)]) != name {
			continue
		}
		if *seen&(1<<j) != 0 {
			break
		}
		*seen |= 1 << j
		s.i += len(name) + 1
		if !s.expect(':') {
			return -1
		}
		return j
	}
	s.declined = true
	return -1
}

// Array opens an array.
func (s *Scanner) Array() { s.expect('[') }

// Elem reports whether the open array has an n-th element (n counts from 0,
// in order), consuming the comma before it, or the bracket that closes the
// array when it has none.
func (s *Scanner) Elem(n int) bool {
	if s.declined {
		return false
	}
	switch c := s.peek(); {
	case c == ']':
		s.i++
		return false
	case n == 0:
		return true
	case c == ',':
		s.i++
		return true
	}
	s.declined = true
	return false
}

// ObjectsAhead bounds the number of elements in an array of flat objects
// just opened — the '{' bytes in the rest of the input, at most limit — so
// the caller can allocate the slice once.
func (s *Scanner) ObjectsAhead(limit int) int {
	return min(bytes.Count(s.b[s.i:], []byte{'{'}), limit)
}

// String reads a string value, copying it out of the input.
func (s *Scanner) String() string {
	if !s.expect('"') {
		return ""
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return string(s.b[start : s.i-1])
		case !plain[c]:
			s.declined = true
			return ""
		}
	}
	s.declined = true
	return ""
}

// integer reads the digits of an integer of magnitude at most limit (one
// more when negative, which only a signed one may be).
func (s *Scanner) integer(signed bool, limit uint64) (mag uint64, neg bool) {
	if s.declined {
		return 0, false
	}
	if s.peek() == '-' && signed {
		neg = true
		limit++
		s.i++
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		d := uint64(s.b[s.i] - '0')
		if d > 9 {
			break
		}
		if mag > (limit-d)/10 {
			s.declined = true
			return 0, false
		}
		mag = mag*10 + d
	}
	// No digits, a leading zero, or "-0": not how strconv prints an integer.
	if n := s.i - start; n == 0 || (n > 1 && s.b[start] == '0') || (neg && mag == 0) {
		s.declined = true
		return 0, false
	}
	return mag, neg
}

func (s *Scanner) signed(limit uint64) int64 {
	mag, neg := s.integer(true, limit)
	if neg {
		return -int64(mag)
	}
	return int64(mag)
}

// Int64 reads an integer that fits an int64.
func (s *Scanner) Int64() int64 { return s.signed(math.MaxInt64) }

// Int reads an integer that fits an int.
func (s *Scanner) Int() int { return int(s.signed(math.MaxInt)) }

// Uint64 reads an integer that fits a uint64.
func (s *Scanner) Uint64() uint64 {
	mag, _ := s.integer(false, math.MaxUint64)
	return mag
}

// Uint32 reads an integer that fits a uint32.
func (s *Scanner) Uint32() uint32 {
	mag, _ := s.integer(false, math.MaxUint32)
	return uint32(mag)
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.declined {
		return false
	}
	s.peek()
	switch rest := s.b[s.i:]; {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.i += 5
		return false
	}
	s.declined = true
	return false
}

// Rest returns the input from where the scan stands, white space and all,
// for a caller that takes the value there as raw bytes: a nil slice once
// the scan declined.
func (s *Scanner) Rest() []byte {
	if s.declined {
		return nil
	}
	return s.b[s.i:]
}

// End reports whether the scan held: nothing declined, and nothing but
// white space is left of the input.
func (s *Scanner) End() bool {
	return !s.declined && s.peek() == 0 && s.i == len(s.b)
}

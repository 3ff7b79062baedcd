// Package wire is a reflection-free JSON codec for the flat structs on
// pfaird's request path, pinned to encoding/json: every operation either
// produces exactly what encoding/json would — the same bytes from a Writer,
// the same value from a Scanner — or declines, and the caller runs
// encoding/json itself. The codec is therefore never the definition of the
// format, only a faster way through the part of it that needs no thought:
//
//   - strings are Plain: ASCII from space up that encoding/json copies
//     between quotes unchanged — no escapes to write or read, no UTF-8 to
//     validate;
//   - object keys match a known field name byte for byte: a key in another
//     case, with an escape in it, repeated, or not known at all declines
//     (encoding/json folds case, lets the last duplicate win — into a reused
//     slice, without zeroing it — and the caller decides about unknown ones);
//   - numbers are integers as strconv prints them: a fraction, an exponent, a
//     leading zero, "-0" or a value outside the field's type declines;
//   - null, nesting a typed codec does not expect, and anything but white
//     space after the value decline.
//
// The typed codecs are written by hand beside their types (internal/server's
// API bodies, internal/wal's Record); differential fuzzers there hold them
// to the contract. Nothing here may import encoding/json, reflect or unsafe.
package wire

// plain marks the bytes encoding/json copies between quotes unchanged:
// ASCII from space up, minus the quote, the backslash, and — Marshal's
// HTML-safe default — <, > and &.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Plain reports whether encoding/json would copy s between quotes
// unchanged, and read it back the same.
func Plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return false
		}
	}
	return true
}

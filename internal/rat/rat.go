// Package rat implements exact rational arithmetic on int64 numerators and
// denominators.
//
// The DVQ model of Devi & Anderson makes scheduling decisions at
// non-integral times: a quantum may end anywhere in (t, t+1]. Comparing such
// times with floating point would eventually misorder events whose
// difference is a tiny rational (the paper's tightness construction uses
// yields at 2−δ for δ → 0), so every simulation time in this repository is a
// Rat. Values stay small — times are bounded by the hyperperiod and
// denominators by the yield grid — but all multiplications are
// overflow-checked and panic rather than silently wrapping.
package rat

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Rat is an immutable rational number n/d in lowest terms with d > 0.
// The zero value represents 0.
type Rat struct {
	n, d int64 // invariant (after normalization): d >= 1, gcd(|n|, d) == 1. d == 0 is read as 1.
}

// Zero and One are the two rationals used pervasively by the schedulers.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
)

// New returns the rational n/d in lowest terms. It panics if d == 0.
func New(n, d int64) Rat {
	if d == 0 {
		panic("rat: zero denominator")
	}
	if d < 0 {
		n, d = -n, -d
	}
	if g := gcd(abs(n), d); g > 1 {
		n /= g
		d /= g
	}
	return Rat{n, d}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// den returns the denominator, mapping the zero value's 0 to 1.
func (r Rat) den() int64 {
	if r.d == 0 {
		return 1
	}
	return r.d
}

// Num returns the numerator of r in lowest terms.
func (r Rat) Num() int64 { return r.n }

// Den returns the (positive) denominator of r in lowest terms.
func (r Rat) Den() int64 { return r.den() }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64 multiplies two int64s, panicking on overflow.
func mul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(abs(a)), uint64(abs(b))
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || (neg && lo > 1<<63) || (!neg && lo > 1<<63-1) {
		panic(fmt.Sprintf("rat: int64 overflow in %d*%d", a, b))
	}
	if neg {
		return -int64(lo)
	}
	return int64(lo)
}

// add64 adds two int64s, panicking on overflow.
func add64(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		panic(fmt.Sprintf("rat: int64 overflow in %d+%d", a, b))
	}
	return s
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	rd, sd := r.den(), s.den()
	// Reduce cross terms by gcd of denominators first to delay overflow.
	g := gcd(rd, sd)
	// r.n*(sd/g) + s.n*(rd/g) over rd*(sd/g)
	n := add64(mul64(r.n, sd/g), mul64(s.n, rd/g))
	d := mul64(rd, sd/g)
	return New(n, d)
}

// Sub returns r − s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Neg returns −r.
func (r Rat) Neg() Rat { return Rat{-r.n, r.den()} }

// Mul returns r × s.
func (r Rat) Mul(s Rat) Rat {
	rn, rd := r.n, r.den()
	sn, sd := s.n, s.den()
	// Cross-reduce before multiplying to keep magnitudes small.
	if g := gcd(abs(rn), sd); g > 1 {
		rn /= g
		sd /= g
	}
	if g := gcd(abs(sn), rd); g > 1 {
		sn /= g
		rd /= g
	}
	return Rat{mul64(rn, sn), mul64(rd, sd)}
}

// Div returns r ÷ s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	if s.n == 0 {
		panic("rat: division by zero")
	}
	sn, sd := s.n, s.den()
	if sn < 0 {
		sn, sd = -sn, -sd
	}
	return r.Mul(Rat{sd, sn})
}

// Cmp compares r and s, returning −1 if r < s, 0 if r == s, +1 if r > s.
func (r Rat) Cmp(s Rat) int {
	rd, sd := r.den(), s.den()
	if rd == sd {
		// Values are in lowest terms, so equal denominators reduce the
		// comparison to the numerators — the common case for simulation
		// times drawn from one yield grid, and the hot path of the DVQ
		// engine's pending heap.
		switch {
		case r.n < s.n:
			return -1
		case r.n > s.n:
			return 1
		default:
			return 0
		}
	}
	// r.n/rd ? s.n/sd  ⇔  r.n*sd ? s.n*rd (denominators positive).
	g := gcd(rd, sd)
	a := mul64(r.n, sd/g)
	b := mul64(s.n, rd/g)
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r ≤ s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.n == s.n && r.den() == s.den() }

// Sign returns −1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.n < 0:
		return -1
	case r.n > 0:
		return 1
	default:
		return 0
	}
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.den() == 1 }

// Floor returns ⌊r⌋ as an int64.
func (r Rat) Floor() int64 {
	d := r.den()
	q := r.n / d
	if r.n%d != 0 && r.n < 0 {
		q--
	}
	return q
}

// Ceil returns ⌈r⌉ as an int64.
func (r Rat) Ceil() int64 {
	d := r.den()
	q := r.n / d
	if r.n%d != 0 && r.n > 0 {
		q++
	}
	return q
}

// Int returns r as an int64 and panics if r is not integral.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("rat: %s is not integral", r))
	}
	return r.n
}

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs ...Rat) Rat {
	s := Zero
	for _, x := range xs {
		s = s.Add(x)
	}
	return s
}

// Float64 returns the nearest float64 to r, for reporting only.
func (r Rat) Float64() float64 { return float64(r.n) / float64(r.den()) }

// String formats r as "n" when integral and "n/d" otherwise.
func (r Rat) String() string {
	if r.IsInt() {
		return strconv.FormatInt(r.n, 10) // no allocation below 100
	}
	var buf [2*20 + 1]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends r's String form to b and returns the extended slice:
// the encoders that write many rationals into one buffer (dispatch frames,
// checkpoints) pay no string per value.
func (r Rat) AppendTo(b []byte) []byte {
	b = strconv.AppendInt(b, r.n, 10)
	if !r.IsInt() {
		b = strconv.AppendInt(append(b, '/'), r.den(), 10)
	}
	return b
}

// FloorDiv returns ⌊a/b⌋ for int64 a and b > 0.
func FloorDiv(a, b int64) int64 {
	if b <= 0 {
		panic("rat: FloorDiv requires b > 0")
	}
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// CeilDiv returns ⌈a/b⌉ for int64 a and b > 0.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("rat: CeilDiv requires b > 0")
	}
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// Parse parses "n", "n/d" or a decimal like "0.75" (exactly, as a rational)
// into a Rat. Unlike the arithmetic methods, Parse reports overflow as an
// error rather than panicking — it handles external input.
func Parse(s string) (r Rat, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = Rat{}, fmt.Errorf("rat: overflow parsing %q", s)
		}
	}()
	if s == "" {
		return Rat{}, fmt.Errorf("rat: empty string")
	}
	if i := indexByte(s, '/'); i >= 0 {
		n, err1 := parseInt(s[:i])
		d, err2 := parseInt(s[i+1:])
		if err1 != nil {
			return Rat{}, err1
		}
		if err2 != nil {
			return Rat{}, err2
		}
		if d == 0 {
			return Rat{}, fmt.Errorf("rat: zero denominator in %q", s)
		}
		return New(n, d), nil
	}
	if i := indexByte(s, '.'); i >= 0 {
		whole, err := parseInt(s[:i])
		if err != nil {
			return Rat{}, err
		}
		fracStr := s[i+1:]
		if fracStr == "" {
			return FromInt(whole), nil
		}
		frac, err := parseInt(fracStr)
		if err != nil || frac < 0 {
			return Rat{}, fmt.Errorf("rat: bad decimal %q", s)
		}
		den := int64(1)
		for range fracStr {
			den = mul64(den, 10)
		}
		f := New(frac, den)
		if whole < 0 || (whole == 0 && s[0] == '-') {
			return FromInt(whole).Sub(f), nil
		}
		return FromInt(whole).Add(f), nil
	}
	n, err := parseInt(s)
	if err != nil {
		return Rat{}, err
	}
	return FromInt(n), nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func parseInt(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("rat: empty number")
	}
	neg := false
	i := 0
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		i++
	}
	if i == len(s) {
		return 0, fmt.Errorf("rat: bad number %q", s)
	}
	var v int64
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("rat: bad number %q", s)
		}
		v = add64(mul64(v, 10), int64(s[i]-'0'))
	}
	if neg {
		v = -v
	}
	return v, nil
}

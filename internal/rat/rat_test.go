package rat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		n, d, wantN, wantD int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 7, 0, 1},
		{6, 3, 2, 1},
		{-9, 3, -3, 1},
		{7, 7, 1, 1},
	}
	for _, c := range cases {
		r := New(c.n, c.d)
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.n, c.d, r.Num(), r.Den(), c.wantN, c.wantD)
		}
	}
}

func TestNewPanicsOnZeroDenominator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueIsZero(t *testing.T) {
	var z Rat
	if !z.Equal(Zero) {
		t.Errorf("zero value = %s, want 0", z)
	}
	if got := z.Add(One); !got.Equal(One) {
		t.Errorf("0 + 1 = %s, want 1", got)
	}
	if z.Den() != 1 {
		t.Errorf("zero value Den = %d, want 1", z.Den())
	}
	if !z.IsInt() {
		t.Error("zero value should be integral")
	}
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got, want := half.Add(third), New(5, 6); !got.Equal(want) {
		t.Errorf("1/2 + 1/3 = %s, want %s", got, want)
	}
	if got, want := half.Sub(third), New(1, 6); !got.Equal(want) {
		t.Errorf("1/2 - 1/3 = %s, want %s", got, want)
	}
	if got, want := half.Mul(third), New(1, 6); !got.Equal(want) {
		t.Errorf("1/2 * 1/3 = %s, want %s", got, want)
	}
	if got, want := half.Div(third), New(3, 2); !got.Equal(want) {
		t.Errorf("(1/2) / (1/3) = %s, want %s", got, want)
	}
	if got, want := half.Neg(), New(-1, 2); !got.Equal(want) {
		t.Errorf("-(1/2) = %s, want %s", got, want)
	}
}

func TestDivByNegative(t *testing.T) {
	if got, want := One.Div(New(-1, 2)), FromInt(-2); !got.Equal(want) {
		t.Errorf("1 / (-1/2) = %s, want %s", got, want)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Rat
		want int
	}{
		{New(1, 2), New(1, 3), 1},
		{New(1, 3), New(1, 2), -1},
		{New(2, 4), New(1, 2), 0},
		{New(-1, 2), New(1, 2), -1},
		{New(-1, 2), New(-1, 3), -1},
		{Zero, Zero, 0},
		{FromInt(5), FromInt(5), 0},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r           Rat
		floor, ceil int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{FromInt(3), 3, 3},
		{FromInt(-3), -3, -3},
		{New(1, 1000), 0, 1},
		{New(-1, 1000), -1, 0},
		{Zero, 0, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%s) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%s) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestIntPanicsOnNonIntegral(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int() on 1/2 did not panic")
		}
	}()
	New(1, 2).Int()
}

func TestString(t *testing.T) {
	if got := New(3, 2).String(); got != "3/2" {
		t.Errorf("String(3/2) = %q", got)
	}
	if got := FromInt(-4).String(); got != "-4" {
		t.Errorf("String(-4) = %q", got)
	}
}

// fmtForm is what String printed through fmt.Sprintf before it moved to
// strconv; String and AppendTo are pinned to it byte for byte, because
// every response, checkpoint, journal record and dispatch frame carries
// these strings.
func fmtForm(r Rat) string {
	if r.IsInt() {
		return fmt.Sprintf("%d", r.Num())
	}
	return fmt.Sprintf("%d/%d", r.Num(), r.Den())
}

func checkStringForms(t *testing.T, r Rat) {
	t.Helper()
	want := fmtForm(r)
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := string(r.AppendTo([]byte("x="))); got != "x="+want {
		t.Fatalf("AppendTo = %q, want %q", got, "x="+want)
	}
}

func TestStringMatchesFmt(t *testing.T) {
	for _, r := range []Rat{
		{}, Zero, One, FromInt(-1), FromInt(99), FromInt(100), FromInt(-100),
		New(1, 2), New(-1, 2), New(1, -2), New(6, 4), New(-6, 4), New(7, 3), New(0, 5),
		FromInt(math.MaxInt64), FromInt(math.MinInt64), New(math.MaxInt64, 2), New(math.MinInt64+1, math.MaxInt64),
		New(1, math.MaxInt64), New(-1, math.MaxInt64), New(123456789, 1000),
	} {
		checkStringForms(t, r)
	}
}

func FuzzStringMatchesFmt(f *testing.F) {
	for _, nd := range [][2]int64{{0, 1}, {3, 2}, {-3, 2}, {5, -10}, {math.MaxInt64, 3}, {math.MinInt64 + 1, 7}, {100, 1}} {
		f.Add(nd[0], nd[1])
	}
	f.Fuzz(func(t *testing.T, n, d int64) {
		if d == 0 || n == math.MinInt64 || d == math.MinInt64 {
			return // New rejects 0 and cannot negate MinInt64
		}
		checkStringForms(t, New(n, d))
	})
}

func TestMinMaxSum(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Min(a, b).Equal(a) || !Min(b, a).Equal(a) {
		t.Error("Min wrong")
	}
	if !Max(a, b).Equal(b) || !Max(b, a).Equal(b) {
		t.Error("Max wrong")
	}
	if got, want := Sum(a, b, One), New(11, 6); !got.Equal(want) {
		t.Errorf("Sum = %s, want %s", got, want)
	}
	if !Sum().Equal(Zero) {
		t.Error("empty Sum should be 0")
	}
}

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor, ceil int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
		{1, 7, 0, 1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.floor {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := CeilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

func TestMulOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing Mul did not panic")
		}
	}()
	big := Rat{math.MaxInt64 / 2, 1}
	big.Mul(big)
}

// small draws a Rat with numerator in [-limit, limit] and denominator in
// [1, limit] so that property-test arithmetic stays far from overflow.
func small(n, d int64) Rat {
	const limit = 1000
	n = n % limit
	d = d % limit
	if d < 0 {
		d = -d
	}
	if d == 0 {
		d = 1
	}
	return New(n, d)
}

func TestPropAddCommutative(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := small(an, ad), small(bn, bd)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddAssociative(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := small(an, ad), small(bn, bd), small(cn, cd)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulDistributesOverAdd(t *testing.T) {
	f := func(an, ad, bn, bd, cn, cd int64) bool {
		a, b, c := small(an, ad), small(bn, bd), small(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubInverse(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := small(an, ad), small(bn, bd)
		return a.Add(b).Sub(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropNormalized(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		r := small(an, ad).Mul(small(bn, bd))
		if r.Den() < 1 {
			return false
		}
		return gcd(abs(r.Num()), r.Den()) <= 1 || r.Num() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropFloorCeilConsistent(t *testing.T) {
	f := func(an, ad int64) bool {
		r := small(an, ad)
		fl, ce := r.Floor(), r.Ceil()
		if FromInt(fl).Cmp(r) > 0 || FromInt(ce).Cmp(r) < 0 {
			return false
		}
		if r.IsInt() {
			return fl == ce
		}
		return ce == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCmpAntisymmetric(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := small(an, ad), small(bn, bd)
		return a.Cmp(b) == -b.Cmp(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDivMulRoundTrip(t *testing.T) {
	f := func(an, ad, bn, bd int64) bool {
		a, b := small(an, ad), small(bn, bd)
		if b.Sign() == 0 {
			return true
		}
		return a.Div(b).Mul(b).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
	}{
		{"3", FromInt(3)},
		{"-7", FromInt(-7)},
		{"1/2", New(1, 2)},
		{"-3/4", New(-3, 4)},
		{"6/4", New(3, 2)},
		{"0.75", New(3, 4)},
		{"-0.5", New(-1, 2)},
		{"2.", FromInt(2)},
		{"+5", FromInt(5)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "a", "1/0", "1/", "/2", "1.a", "--3", "1e3"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestPropParseRoundTrip(t *testing.T) {
	f := func(an, ad int64) bool {
		r := small(an, ad)
		got, err := Parse(r.String())
		return err == nil && got.Equal(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParse asserts Parse never panics and successful parses round-trip.
func FuzzParse(f *testing.F) {
	for _, s := range []string{"3", "-7", "1/2", "0.75", "6/4", "+5", "2.", "x", "1/0", "", "9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := Parse(s)
		if err != nil {
			return
		}
		back, err2 := Parse(r.String())
		if err2 != nil || !back.Equal(r) {
			t.Fatalf("round trip failed for %q → %s", s, r)
		}
	})
}

func TestParseOverflowIsError(t *testing.T) {
	if _, err := Parse("99999999999999999999999999"); err == nil {
		t.Error("overflowing integer parse should error, not panic")
	}
	if _, err := Parse("1.000000000000000000000001"); err == nil {
		t.Error("overflowing decimal parse should error")
	}
}

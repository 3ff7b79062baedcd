package rat

// Lattice is a fixed-point time grid: the set {k/den : k ∈ int64}. When
// every rational that an engine compares lives on one lattice — the common
// case, since task periods and yields share a small LCM of denominators —
// ordering and addition collapse to single int64 operations on the tick
// count k, with no gcd reductions and no overflow-checked cross
// multiplication. The exact Rat engine remains the oracle: every lattice
// operation either returns the exact answer or reports ok=false, and the
// caller falls back to Rat arithmetic. A Lattice never approximates.
//
// The zero Lattice is the integer grid (den 1).
type Lattice struct {
	den int64
}

// LatticeOf returns the lattice with the given denominator. It panics on
// den ≤ 0 — callers construct lattices from Rat denominators, which are
// always positive.
func LatticeOf(den int64) Lattice {
	if den <= 0 {
		panic("rat: lattice denominator must be positive")
	}
	return Lattice{den: den}
}

// Den returns the lattice denominator (1 for the zero Lattice).
func (l Lattice) Den() int64 {
	if l.den == 0 {
		return 1
	}
	return l.den
}

// Extend returns the coarsest lattice containing both l and the grid
// 1/den — the LCM of the two denominators. ok is false when the LCM
// overflows int64, in which case the receiver is returned unchanged.
func (l Lattice) Extend(den int64) (Lattice, bool) {
	if den <= 0 {
		return l, false
	}
	a := l.Den()
	g := gcd(a, den)
	step := den / g
	hi := a * step
	if a != 0 && hi/a != step { // overflow check: a*step must round-trip
		return l, false
	}
	return Lattice{den: hi}, true
}

// FromRat converts r to a tick count on l. ok is false when r is not on
// the lattice or the tick count overflows int64.
func (l Lattice) FromRat(r Rat) (int64, bool) {
	d := r.den()
	den := l.Den()
	if d == den { // r is on the lattice's own grid: no division needed
		return r.n, true
	}
	if den%d != 0 {
		return 0, false
	}
	scale := den / d
	t := r.n * scale
	if r.n != 0 && t/r.n != scale {
		return 0, false
	}
	return t, true
}

// FromInt converts an integer to a tick count on l. ok is false on
// overflow.
func (l Lattice) FromInt(n int64) (int64, bool) {
	den := l.Den()
	t := n * den
	if n != 0 && t/n != den {
		return 0, false
	}
	return t, true
}

// ToRat converts a tick count back to the exact rational it denotes.
func (l Lattice) ToRat(t int64) Rat { return New(t, l.Den()) }

// Rescale converts a tick count on l to the equivalent tick count on the
// finer lattice to. ok is false when to is not a refinement of l or the
// result overflows.
func (l Lattice) Rescale(t int64, to Lattice) (int64, bool) {
	from, dest := l.Den(), to.Den()
	if dest%from != 0 {
		return 0, false
	}
	scale := dest / from
	r := t * scale
	if t != 0 && r/t != scale {
		return 0, false
	}
	return r, true
}

// AddTicks returns a+b with overflow detection: two on-lattice values on
// the same lattice sum tick-wise.
func AddTicks(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// SubTicks returns a−b with overflow detection.
func SubTicks(a, b int64) (int64, bool) {
	if b == minInt64 {
		if a >= 0 {
			return 0, false
		}
		return a - b, true
	}
	return AddTicks(a, -b)
}

const minInt64 = -1 << 63

// MulTicks multiplies two on-lattice values a/den and b/den, returning
// the product as ticks on the same lattice: (a·b)/den. ok is false when
// the intermediate product overflows or the product leaves the lattice
// (a·b not divisible by den).
func (l Lattice) MulTicks(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b || (a == -1 && b == minInt64) || (b == -1 && a == minInt64) {
		return 0, false
	}
	den := l.Den()
	if p%den != 0 {
		return 0, false
	}
	return p / den, true
}

// CmpTicks compares two tick counts on the same lattice: −1, 0, or +1.
// On-lattice comparison is exact — this is the single-int64 fast path
// that replaces Rat.Cmp's cross multiplication.
func CmpTicks(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

"""Exact scalars: Gaussian rationals extended by real square roots of integers.

A value is a finite sum ``sum_r (a_r + b_r*i) * sqrt(r) / d`` over square-free
positive integers r, with integer numerators a_r, b_r and one positive integer
denominator d; the term r = 1 is the Gaussian part.  This is the integral
representation of a number-field element over a common denominator (Cohen,
*A Course in Computational Algebraic Number Theory*, section 4.2).  Values
are never modified after construction and are always kept canonical:
radicands square-free, no zero pairs, and gcd(d, all a_r, all b_r) = 1, so
equal values have equal fields.  Sums and products therefore need only
integer arithmetic and one gcd pass, and a rational operand only scales the
numerators.

A value with one radicand is held in four integer slots,
(re + im*i) * sqrt(r) / d, with no radicand table; r = 1 is Q(i).  Catalog
bases, structure constants, rational coordinates and ad-matrices lie in
Q(i), and every coordinate of the normal triple and the section has one
radicand, so this is the fast path: + and - of equal radicands, *
(sqrt(r) * sqrt(s) = k * sqrt(r*s / k^2) with k = gcd(r, s)), negation,
``conj`` and ``inv`` (d (a - b*i) sqrt(r) / ((a^2 + b^2) r)) are a few
integer operations and one gcd.  A value with two or more radicands keeps
its radicand table {r: (a_r, b_r)}; an operation with such an operand, or a
sum of two radicands, works on the tables, and a result with one radicand
takes the slot form again, so each value has exactly one form.  A value
with a radical hashes as its table, hash((d, frozenset(table.items()))),
in either form.

The inverse of a value with radicals goes through the conjugates.
Q(i, sqrt(p_1), ..., sqrt(p_k)), for the primes p_j dividing the radicands of
x, has the automorphisms i -> -i and sqrt(p_j) -> -sqrt(p_j).  Taking each
sigma in turn, c = sigma(z), P *= c, z *= c makes z fixed by sigma and keeps
it fixed by the earlier ones (the group is abelian), so at the end z = N(x)
is rational and x^-1 = P / N(x).

``ZERO`` is the only zero Scalar: every operation, ``Scalar.of``,
``Scalar.sqrt``, ``Scalar(terms)``, copies and pickles return that one
object for a zero value.  The linear algebra therefore tests a Scalar for
zero by identity, ``x is ZERO``, without a call.  ``add_product(x, c, e)``
is the fused multiply-add x + c*e of its row reductions and brackets (x None
reads as zero): with c and e in the slot form and x of their product's
radicand, it forms the product and the sum in integers over one denominator
and allocates only the result; other operands take the two operations.
Only this module reads a Scalar's slots, so the ring map to F_p is here
too: ``reduction(values)`` maps i and the square root of each radicand
prime of the values to roots mod p, the smallest prime above 2^30 with
p = 1 mod 8 prod q over the odd radicand primes q; it declines
(``NotReducible``) a value whose denominator p divides.

This field is closed under the four operations and under complex
conjugation, which is all the rest of the package needs.  Fractions and ints
mix with Scalars in every operation and compare and hash equal to the
rational Scalars of the same value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Optional, Tuple

_Z2 = (0, 0)

Coef = Tuple[Fraction, Fraction]  # re, im


# trial division stops below this prime bound; a radicand with a prime factor
# at or above it is refused, so splitting and inverting stay bounded
_PRIME_BOUND = 2 ** 16


def _squarefree_split(n: int) -> Tuple[int, int]:
    """n = s * k^2 with s square-free; returns (s, k).  n must be positive,
    with every prime factor below 2^16."""
    if n <= 0:
        raise ValueError("radicand must be positive, got %r" % (n,))
    s, k, m = 1, 1, n
    d = 2
    while d * d <= m and d < _PRIME_BOUND:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    # m is now 1, a prime, or a product of primes of at least d
    if m >= _PRIME_BOUND:
        raise ValueError("radicand %d has a prime factor of 2^16 or more" % n)
    return s * m, k


@lru_cache(maxsize=256)
def _primes_of(r: int) -> Tuple[int, ...]:
    """The prime factors of a square-free radicand, ascending; each is below
    2^16, so the trial division is short."""
    out = []
    p = 2
    while p * p <= r:
        if r % p == 0:
            out.append(p)
            r //= p
        p += 1
    if r > 1:
        out.append(r)
    return tuple(out)


def _reduced(t: Dict[int, Tuple[int, int]], d: int, g: int) -> "Scalar":
    """The Scalar t / d in lowest terms, where any factor common to d and
    all of t's numerators divides g; t has no zero pairs."""
    if g != 1:
        for a, b in t.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            t = {r: (a // g, b // g) for r, (a, b) in t.items()}
            d //= g
    return _make(t, d)


def _slot(re: int, im: int, r: int, d: int, g: int = 1) -> "Scalar":
    """The Scalar (re + im*i) * sqrt(r) / d in lowest terms, r square-free,
    where any factor common to d and both numerators divides g (g = 1: none
    does); ZERO itself when re = im = 0."""
    if not (re or im):
        return ZERO
    if g != 1:
        g = gcd(re, im, g)
        if g != 1:
            re, im, d = re // g, im // g, d // g
    x = _new(Scalar)  # one store per slot: quicker than a tuple unpack
    x._t = x._hash = None
    x._re = re
    x._im = im
    x._r = r
    x._d = d
    return x


def _slot_add(x: "Scalar", re: int, im: int, d: int) -> "Scalar":
    """x + (re + im*i) * sqrt(r) / d for a slot-form x of radicand r and a
    canonical right side."""
    dx = x._d
    if dx == d:
        return _slot(x._re + re, x._im + im, x._r, d, d)
    # a common factor of the sum and its denominator divides gcd(dx, d)
    g = gcd(dx, d)
    mx, m = d // g, dx // g
    return _slot(x._re * mx + re * m, x._im * mx + im * m, x._r, dx * mx, g)


def _table(x: "Scalar") -> Dict[int, Tuple[int, int]]:
    """The radicand table of x, also for a slot-form x ({} for zero)."""
    t = x._t
    if t is None:
        return {x._r: (x._re, x._im)} if x._re or x._im else {}
    return t


class Scalar:
    """An element of Q(i, sqrt(r_1), sqrt(r_2), ...), canonical and immutable."""

    # _t is None for a value with one radicand, (_re + _im*i) * sqrt(_r) / _d
    # (_r = 1 in Q(i)); otherwise _t is the radicand table over _d, and
    # _re = _im = _r = 0, so _r is nonzero exactly in the slot form
    __slots__ = ("_t", "_re", "_im", "_r", "_d", "_hash")

    def __new__(cls, terms: Dict[int, Coef]) -> "Scalar":
        """The sum of (a + b*i) * sqrt(r) over rational pairs, any radicands;
        ZERO itself when the sum vanishes."""
        clean: Dict[int, Coef] = {}
        for r, (a, b) in terms.items():
            s, k = _squarefree_split(r)
            pa, pb = clean.get(s, _Z2)
            clean[s] = (pa + a * k, pb + b * k)
        d = 1
        for a, b in clean.values():
            for q in (a.denominator, b.denominator):
                d = d * q // gcd(d, q)
        t = {r: (int(a * d), int(b * d)) for r, (a, b) in clean.items() if a or b}
        return _reduced(t, d, d)

    def __reduce__(self):
        # copies and pickles go through the constructor, which keeps one zero
        return Scalar, (self.terms(),)

    # --- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return _slot(x, 0, 1, 1)
        if isinstance(x, Fraction):
            return _slot(x.numerator, 0, 1, x.denominator)
        raise TypeError("cannot coerce %r to Scalar" % (x,))

    @staticmethod
    def sqrt(q) -> "Scalar":
        """Exact square root of a nonnegative rational."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational is not in the field")
        if q == 0:
            return ZERO
        # sqrt(p/q) = sqrt(p*q)/q, then pull out the square part.
        s, k = _squarefree_split(q.numerator * q.denominator)
        c = Fraction(k, q.denominator)
        return _slot(c.numerator, 0, s, c.denominator)

    # --- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return self is ZERO

    def is_rational(self) -> bool:
        return self._r == 1 and not self._im

    def as_fraction(self) -> Fraction:
        if self._r == 1 and not self._im:
            return Fraction(self._re, self._d)
        raise ValueError("not rational: %s" % (self,))

    def gaussian_parts(self) -> Optional[Tuple[Fraction, Fraction]]:
        """(re, im) when the value lies in Q(i), else None."""
        if self._r != 1:
            return None
        return Fraction(self._re, self._d), Fraction(self._im, self._d)

    def radicands(self) -> Tuple[int, ...]:
        return tuple(sorted(_table(self)))

    def terms(self) -> Dict[int, Coef]:
        d = self._d
        return {r: (Fraction(a, d), Fraction(b, d))
                for r, (a, b) in _table(self).items()}

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        r = self._r
        if r and r == other._r:
            return _slot_add(self, other._re, other._im, other._d)
        ta, tb = _table(self), _table(other)
        if not ta:
            return other
        if not tb:
            return self
        da, db = self._d, other._d
        g = gcd(da, db)
        ma, mb = db // g, da // g
        t = dict(ta) if ma == 1 else {r: (a * ma, b * ma) for r, (a, b) in ta.items()}
        for r, (c, e) in tb.items():
            a, b = t.get(r, _Z2)
            a, b = a + c * mb, b + e * mb
            if a or b:
                t[r] = (a, b)
            else:
                del t[r]
        return _reduced(t, da * ma, g)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        t = self._t
        if t is None:
            return _slot(-self._re, -self._im, self._r, self._d)
        return _make({r: (-a, -b) for r, (a, b) in t.items()}, self._d)

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        r = self._r
        if r and r == other._r:
            return _slot_add(self, -other._re, -other._im, other._d)
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) - self

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            if isinstance(other, int):
                return self._scaled(other, 1)
            if isinstance(other, Fraction):
                return self._scaled(other.numerator, other.denominator)
            other = Scalar.of(other)
        r, s = self._r, other._r
        if r and s:
            if other is ONE or self is ONE:
                return self if other is ONE else other
            a, b, c, e = self._re, self._im, other._re, other._im
            re, im, d = a * c - b * e, a * e + b * c, self._d * other._d
            if r != 1 or s != 1:  # as in add_product
                k = gcd(r, s)
                r = (r // k) * (s // k)
                re, im = re * k, im * k
            return _slot(re, im, r, d, d)
        if s == 1 and not other._im:
            return self._scaled(other._re, other._d)
        if r == 1 and not self._im:
            return other._scaled(self._re, self._d)
        ta, tb = _table(self), _table(other)
        if len(tb) > len(ta):
            ta, tb = tb, ta
        acc: Dict[int, Tuple[int, int]] = {}
        for s, (c, e) in tb.items():
            for r, (a, b) in ta.items():
                # sqrt(r) * sqrt(s) = k * sqrt(t)
                k = gcd(r, s)
                t = (r // k) * (s // k)
                re, im = (a * c - b * e) * k, (a * e + b * c) * k
                pa, pb = acc.get(t, _Z2)
                acc[t] = (pa + re, pb + im)
        if len(tb) > 1:  # one term of tb maps the radicands one to one
            acc = {r: c for r, c in acc.items() if c[0] or c[1]}
        d = self._d * other._d
        return _reduced(acc, d, d)

    __rmul__ = __mul__

    def _scaled(self, p: int, q: int) -> "Scalar":
        """self * p/q for p/q in lowest terms with q > 0."""
        d = self._d * q
        t = self._t
        if t is None:
            return _slot(self._re * p, self._im * p, self._r, d, d)
        if not p:
            return ZERO
        return _reduced({r: (a * p, b * p) for r, (a, b) in t.items()}, d, d)

    def conj(self) -> "Scalar":
        t = self._t
        if t is None:
            return _slot(self._re, -self._im, self._r, self._d) if self._im else self
        return _make({r: (a, -b) for r, (a, b) in t.items()}, self._d)

    def inv(self) -> "Scalar":
        """Multiplicative inverse: d / ((a + b*i) sqrt(r)) =
        d (a - b*i) sqrt(r) / ((a^2 + b^2) r) in the slot form, else the
        product of conjugates over the norm."""
        t = self._t
        if t is None:
            a, b, r, d = self._re, self._im, self._r, self._d
            if not (a or b):
                raise ZeroDivisionError("inverse of zero Scalar")
            n = (a * a + b * b) * r
            return _slot(d * a, -d * b, r, n, n)
        p = ONE
        z = self
        if any(b for _, b in t.values()):
            c = z.conj()
            p, z = c, z * c
        for q in sorted({q for r in t for q in _primes_of(r)}):
            if any(r % q == 0 for r in _table(z)):
                c = _make({r: (-a, -b) if r % q == 0 else (a, b)
                           for r, (a, b) in _table(z).items()}, z._d)
                p, z = p * c, z * c
        # z = N(self) is rational now: self^-1 = p * z._d / z's numerator
        if not z.is_rational():
            raise ArithmeticError("norm of %s is not rational" % (self,))
        n = z._re
        return p._scaled(z._d, n) if n > 0 else p._scaled(-z._d, -n)

    def __truediv__(self, other) -> "Scalar":
        return self * Scalar.of(other).inv()

    def __rtruediv__(self, other) -> "Scalar":
        return Scalar.of(other) * self.inv()

    # --- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is Scalar:
            return (self._re == other._re and self._im == other._im
                    and self._r == other._r and self._d == other._d
                    and self._t == other._t)
        if isinstance(other, (int, Fraction)):
            return (self._r == 1 and not self._im
                    and self._re == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self._r != 1:  # one formula for every value with radicals
                h = hash((self._d, frozenset(_table(self).items())))
            elif self._im:
                h = hash((self._re, self._im, self._d))
            else:  # equal to an int or a Fraction, so hash like it
                h = hash(Fraction(self._re, self._d))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return self is not ZERO

    # --- text form --------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return "Scalar(%s)" % format_scalar(self)


_new = object.__new__


def _make(t: Dict[int, Tuple[int, int]], d: int) -> Scalar:
    """A Scalar from canonical integer pairs over the denominator d."""
    if len(t) == 1:
        (r, (a, b)), = t.items()
        return _slot(a, b, r, d)
    if not t:
        return ZERO
    x = _new(Scalar)
    x._t = t
    x._re = x._im = x._r = 0
    x._d = d
    x._hash = None
    return x


def add_product(x: Optional[Scalar], c: Scalar, e: Scalar) -> Scalar:
    """x + c * e for Scalars, with x None read as zero: the multiply-add of
    the row reductions and brackets.  When c and e are in the slot form and
    x is zero or has the radicand of their product, the integer arithmetic
    is done once, over one common denominator, and only the result is
    allocated; other operands take x + c * e."""
    r, s = c._r, e._r
    if not (r and s):
        return c * e if x is None else x + c * e
    a, b, p, q = c._re, c._im, e._re, e._im
    re, im, d = a * p - b * q, a * q + b * p, c._d * e._d
    if r != 1 or s != 1:
        # sqrt(r) * sqrt(s) = k * sqrt(r*s / k^2) with k = gcd(r, s)
        k = gcd(r, s)
        r = (r // k) * (s // k)
        re, im = re * k, im * k
    if x is not None:
        if x._r != r:
            return x + _slot(re, im, r, d, d)
        dx = x._d
        if dx == d:
            re, im = x._re + re, x._im + im
        else:
            g = gcd(dx, d)
            mx, m = d // g, dx // g
            re, im, d = x._re * mx + re * m, x._im * mx + im * m, dx * mx
    # the product's own denominator may share factors with its numerators
    return _slot(re, im, r, d, d)


# --- reduction mod p --------------------------------------------------------

# Miller-Rabin on these bases is deterministic below the bound (Sorenson and
# Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below _MR_BOUND."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int:
    """A root of the square a mod the odd prime p (Tonelli-Shanks)."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s, q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a t, and the order of t halves each round
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class NotReducible(ArithmeticError):
    """The reduction declines a value: p divides its denominator, or a
    prime of one of its radicands has no root in the map."""


class Reduction:
    """The ring map Z[1/D][i, sqrt(2), sqrt(q_1), ...] -> F_p, p prime to D.

    i and sqrt(q) of each prime q go to fixed roots of -1 and q mod p, and
    sqrt(r) of a square-free r to the product of the roots of its prime
    factors, as sqrt(r) is that product in the field: so the map is a ring
    homomorphism.  Calling it on a value gives its image in [0, p) or
    raises NotReducible.
    """

    __slots__ = ("p", "_roots")

    def __init__(self, p: int, roots: Dict[int, int]):
        # -1 and each prime to its root; _root adds each radicand it meets
        self.p, self._roots = p, dict(roots)

    def _root(self, r: int) -> int:
        if r not in self._roots:
            missing = [q for q in _primes_of(r) if q not in self._roots]
            if missing:
                raise NotReducible("sqrt(%d) is not mapped" % missing[0])
            root = 1
            for q in _primes_of(r):
                root = root * self._roots[q] % self.p
            self._roots[r] = root
        return self._roots[r]

    def __call__(self, x) -> int:
        x, p = Scalar.of(x), self.p
        d, i = x._d, self._roots[-1]
        if not d % p:
            raise NotReducible("%d divides the denominator %d" % (p, d))
        if x._t is None:
            acc = (x._re + x._im * i) * self._root(x._r)
        else:
            acc = sum((a + b * i) * self._root(r) for r, (a, b) in x._t.items())
        return acc % p if d == 1 else acc * pow(d, -1, p) % p


def reduction(values) -> Reduction:
    """The Reduction for the radicands of `values` (Scalars, ints or
    Fractions), at the smallest prime p above 2^30 with p = 1 mod 8 prod q
    over the odd primes q of the radicands: -1, 2 and each q are then squares
    mod p by quadratic reciprocity.  NotReducible when no such p lies in
    the proven range of the primality test."""
    odd = {q for x in values if x.__class__ is Scalar and x._r != 1
           for r in _table(x) for q in _primes_of(r) if q != 2}
    return _reduction(tuple(sorted(odd)))


@lru_cache(maxsize=64)
def _reduction(odd: Tuple[int, ...]) -> Reduction:
    m = 8
    for q in odd:
        m *= q
    p = 2 ** 30 + 1 + (-2 ** 30) % m
    while p < _MR_BOUND:
        if _is_prime(p):
            return Reduction(p, {q: _sqrt_mod(q % p, p) for q in (-1, 2) + odd})
        p += m
    raise NotReducible("no proven prime = 1 mod %d" % m)


# --- parsing and printing ---------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Canonical text form, e.g. ``1/2 + 3/4*i*sqrt(2)``."""
    if x.is_zero():
        return "0"
    pieces = []  # (negative?, unsigned text)
    terms = x.terms()
    for r in x.radicands():
        a, b = terms[r]
        tail = "" if r == 1 else "sqrt(%d)" % r
        if a:
            mag = abs(a)
            if tail and mag == 1:
                body = tail
            elif tail:
                body = "%s*%s" % (mag, tail)
            else:
                body = str(mag)
            pieces.append((a < 0, body))
        if b:
            mag = abs(b)
            head = "i" if mag == 1 else "%s*i" % mag
            body = head + ("*" + tail if tail else "")
            pieces.append((b < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


class ScalarParseError(ValueError):
    pass


def parse_int(text: str, negative: bool = False) -> int:
    """The int spelled by ASCII decimal digits, after one leading '-' when
    `negative` is set.  ValueError for any other text, such as '1_0', '+3'
    or digits of another script, all of which int() would accept."""
    digits = text[1:] if negative and text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not a decimal integer: %r" % (text,))
    return int(text)


def _parse_rational(text: str) -> Fraction:
    """p or p/q in ASCII digits, p with an optional leading '-', q not 0."""
    num, slash, den = text.partition("/")
    q = parse_int(den) if slash else 1
    if not q:
        raise ValueError("zero denominator")
    return Fraction(parse_int(num, negative=True), q)


def parse_scalar(text: str) -> Scalar:
    """Parse the grammar emitted by format_scalar (plus parenthesized products)."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar text")
    try:
        val, pos = _parse_sum(s, 0)
    except RecursionError:
        raise ScalarParseError("scalar text nested too deeply") from None
    if pos != len(s):
        raise ScalarParseError("trailing input at %d in %r" % (pos, text))
    return val


def _parse_sum(s: str, pos: int) -> Tuple[Scalar, int]:
    total = ZERO
    sign = 1
    if pos < len(s) and s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos += 1
    while True:
        term, pos = _parse_product(s, pos)
        total = total + (term if sign > 0 else -term)
        if pos < len(s) and s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            continue
        return total, pos


def _parse_product(s: str, pos: int) -> Tuple[Scalar, int]:
    val, pos = _parse_factor(s, pos)
    while pos < len(s) and s[pos] == "*":
        nxt, pos = _parse_factor(s, pos + 1)
        val = val * nxt
    return val, pos


def _parse_factor(s: str, pos: int) -> Tuple[Scalar, int]:
    if pos >= len(s):
        raise ScalarParseError("unexpected end of scalar text")
    if s[pos] == "(":
        val, pos = _parse_sum(s, pos + 1)
        if pos >= len(s) or s[pos] != ")":
            raise ScalarParseError("unbalanced parenthesis")
        return val, pos + 1
    if s.startswith("sqrt(", pos):
        end = s.find(")", pos + 5)
        if end < 0:
            raise ScalarParseError("unterminated sqrt()")
        body = s[pos + 5:end]
        try:
            return Scalar.sqrt(_parse_rational(body)), end + 1
        except ValueError as exc:
            raise ScalarParseError("bad radicand %r: %s" % (body, exc)) from exc
    if s[pos] == "i" and (pos + 1 == len(s) or not s[pos + 1].isalnum()):
        return I, pos + 1
    j = pos
    # the token runs on through a sign after '/', so '1/-2' is reported whole
    while j < len(s) and (s[j].isdigit() or s[j] == "/"
                          or s[j] == "-" and s[j - 1] == "/"):
        j += 1
    if j == pos:
        raise ScalarParseError("cannot parse factor at %d in %r" % (pos, s))
    try:
        q = _parse_rational(s[pos:j])
    except ValueError as exc:
        raise ScalarParseError("bad rational %r: %s" % (s[pos:j], exc)) from exc
    return Scalar.of(q), j


ZERO = _new(Scalar)
ZERO._t = ZERO._hash = None
ZERO._re, ZERO._im, ZERO._r, ZERO._d = 0, 0, 1, 1
ONE = _slot(1, 0, 1, 1)
I = _slot(0, 1, 1, 1)

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

A value in Q(i) is held in three integer slots, (re + im*i) / d, with no
radicand table.  Catalog bases, structure constants, rational coordinates and
ad-matrices all lie in Q(i), so this is the fast path: +, -, *, negation,
``conj`` and ``inv`` of two such values are a few integer operations and one
gcd.  Any other value keeps its radicand table {r: (a_r, b_r)}; an operation
with such an operand works on the tables, and a result that lies in Q(i)
takes the slot form again, so each value has exactly one form.

The inverse of a value with radicals goes through the conjugates.
Q(i, sqrt(p_1), ..., sqrt(p_k)), for the primes p_j dividing the radicands of
x, has the automorphisms i -> -i and sqrt(p_j) -> -sqrt(p_j).  Taking each
sigma in turn, c = sigma(z), P *= c, z *= c makes z fixed by sigma and keeps
it fixed by the earlier ones (the group is abelian), so at the end z = N(x)
is rational and x^-1 = P / N(x).

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


def _squarefree_split(n: int) -> Tuple[int, int]:
    """n = s * k^2 with s square-free; returns (s, k).  n must be positive."""
    if n <= 0:
        raise ValueError("radicand must be positive, got %r" % (n,))
    s, k = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            k *= d ** (e // 2)
            if e % 2:
                s *= d
        d += 1 if d == 2 else 2
    return s * n, k


@lru_cache(maxsize=256)
def _primes_of(r: int) -> Tuple[int, ...]:
    """The prime factors of a square-free radicand, ascending."""
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


def _gauss(re: int, im: int, d: int, g: int = 1) -> "Scalar":
    """The Gaussian Scalar (re + im*i) / d in lowest terms, where any factor
    common to d and both numerators divides g (g = 1: none does)."""
    if g != 1:
        g = gcd(re, im, g)
        if g != 1:
            re, im, d = re // g, im // g, d // g
    x = _new(Scalar)
    x._t, x._re, x._im, x._d, x._hash = None, re, im, d, None
    return x


def _gauss_add(x: "Scalar", re: int, im: int, d: int) -> "Scalar":
    """x + (re + im*i) / d for a Gaussian x and a canonical right side."""
    dx = x._d
    if dx == d:
        return _gauss(x._re + re, x._im + im, d, d)
    # a common factor of the sum and its denominator divides gcd(dx, d)
    g = gcd(dx, d)
    mx, m = d // g, dx // g
    return _gauss(x._re * mx + re * m, x._im * mx + im * m, dx * mx, g)


def _table(x: "Scalar") -> Dict[int, Tuple[int, int]]:
    """The radicand table of x, also for a Gaussian x ({} for zero)."""
    t = x._t
    if t is None:
        return {1: (x._re, x._im)} if x._re or x._im else {}
    return t


class Scalar:
    """An element of Q(i, sqrt(r_1), sqrt(r_2), ...), canonical and immutable."""

    # _t is None for a value in Q(i), which is then (_re + _im*i) / _d;
    # otherwise _t is the radicand table over _d, and _re = _im = 0
    __slots__ = ("_t", "_re", "_im", "_d", "_hash")

    def __init__(self, terms: Dict[int, Coef]):
        """The sum of (a + b*i) * sqrt(r) over rational pairs, any radicands."""
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
        x = _reduced(t, d, d)
        self._t, self._re, self._im, self._d = x._t, x._re, x._im, x._d
        self._hash = None

    # --- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return _gauss(x, 0, 1)
        if isinstance(x, Fraction):
            return _gauss(x.numerator, 0, x.denominator)
        raise TypeError("cannot coerce %r to Scalar" % (x,))

    @staticmethod
    def gaussian(re, im) -> "Scalar":
        """re + im*i for ints or Fractions re and im."""
        qr, qi = re.denominator, im.denominator
        d = qr * qi // gcd(qr, qi)
        # each part is in lowest terms, so no factor of d divides both
        return _gauss(re.numerator * (d // qr), im.numerator * (d // qi), d)

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
        return _make({s: (c.numerator, 0)}, c.denominator)

    # --- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not (self._re or self._im or self._t)

    def is_rational(self) -> bool:
        return self._t is None and not self._im

    def as_fraction(self) -> Fraction:
        if self._t is None and not self._im:
            return Fraction(self._re, self._d)
        raise ValueError("not rational: %s" % (self,))

    def gaussian_parts(self) -> Optional[Tuple[Fraction, Fraction]]:
        """(re, im) when the value lies in Q(i), else None."""
        if self._t is not None:
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
        if self._t is None and other._t is None:
            return _gauss_add(self, other._re, other._im, other._d)
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
            return _gauss(-self._re, -self._im, self._d)
        return _make({r: (-a, -b) for r, (a, b) in t.items()}, self._d)

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = Scalar.of(other)
        if self._t is None and other._t is None:
            return _gauss_add(self, -other._re, -other._im, other._d)
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
        if self._t is None and other._t is None:
            if other is ONE or self is ONE:
                return self if other is ONE else other
            a, b, c, e = self._re, self._im, other._re, other._im
            d = self._d * other._d
            return _gauss(a * c - b * e, a * e + b * c, d, d)
        if other._t is None and not other._im:
            return self._scaled(other._re, other._d)
        if self._t is None and not self._im:
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
        t = self._t
        if t is None:
            d = self._d * q
            return _gauss(self._re * p, self._im * p, d, d)
        if not p:
            return ZERO
        if q == 1 and p == 1:
            return self
        d = self._d
        g = gcd(p, d)
        if g != 1:
            p //= g
            d //= g
        h = 1
        if q != 1:
            # the numerators' common factor with q cancels against q
            h = q
            for a, b in t.values():
                h = gcd(h, a, b)
                if h == 1:
                    break
        return _make({r: (a // h * p, b // h * p) for r, (a, b) in t.items()},
                     d * (q // h))

    def conj(self) -> "Scalar":
        t = self._t
        if t is None:
            return _gauss(self._re, -self._im, self._d) if self._im else self
        return _make({r: (a, -b) for r, (a, b) in t.items()}, self._d)

    def inv(self) -> "Scalar":
        """Multiplicative inverse: d / (a + b*i) = d (a - b*i) / (a^2 + b^2)
        in Q(i), else the product of conjugates over the norm."""
        t = self._t
        if t is None:
            a, b, d = self._re, self._im, self._d
            if not (a or b):
                raise ZeroDivisionError("inverse of zero Scalar")
            n = a * a + b * b
            return _gauss(d * a, -d * b, n, n)
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

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inv() ** (-n)
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # --- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if other.__class__ is Scalar:
            return (self._re == other._re and self._im == other._im
                    and self._d == other._d and self._t == other._t)
        if isinstance(other, (int, Fraction)):
            return (self._t is None and not self._im
                    and self._re == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            if self._t is not None:
                h = hash((self._d, frozenset(self._t.items())))
            elif self._im:
                h = hash((self._re, self._im, self._d))
            else:  # equal to an int or a Fraction, so hash like it
                h = hash(Fraction(self._re, self._d))
            self._hash = h
        return h

    def __bool__(self) -> bool:
        return bool(self._re or self._im or self._t)

    # --- text form --------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return "Scalar(%s)" % format_scalar(self)


_new = object.__new__


def _make(t: Dict[int, Tuple[int, int]], d: int) -> Scalar:
    """A Scalar from canonical integer pairs over the denominator d."""
    if len(t) == 1 and 1 in t:
        return _gauss(*t[1], d)
    if not t:
        return ZERO
    x = _new(Scalar)
    x._t = t
    x._re = x._im = 0
    x._d = d
    x._hash = None
    return x


# --- parsing and printing ---------------------------------------------------

def _fmt_rat(q: Fraction) -> str:
    return str(q)


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
                body = "%s*%s" % (_fmt_rat(mag), tail)
            else:
                body = _fmt_rat(mag)
            pieces.append((a < 0, body))
        if b:
            mag = abs(b)
            head = "i" if mag == 1 else "%s*i" % _fmt_rat(mag)
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
    """p or p/q in ASCII digits, p with an optional leading '-'."""
    num, slash, den = text.partition("/")
    return Fraction(parse_int(num, negative=True),
                    parse_int(den) if slash else 1)


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
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError("bad radicand %r: %s" % (body, exc)) from exc
    if s[pos] == "i" and (pos + 1 == len(s) or not s[pos + 1].isalnum()):
        return I, pos + 1
    j = pos
    while j < len(s) and (s[j].isdigit() or s[j] == "/"):
        j += 1
    if j == pos:
        raise ScalarParseError("cannot parse factor at %d in %r" % (pos, s))
    try:
        q = _parse_rational(s[pos:j])
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError("bad rational %r" % s[pos:j]) from exc
    return Scalar.of(q), j


ZERO = _gauss(0, 0, 1)
ONE = _gauss(1, 0, 1)
I = _gauss(0, 1, 1)

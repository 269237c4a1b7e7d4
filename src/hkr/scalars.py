"""Exact scalars: Gaussian rationals extended by real square roots of integers.

A value is a finite sum ``sum_r (a_r + b_r*i) * sqrt(r)`` over square-free
positive integers r with rational a_r, b_r; the term r = 1 is the rational
part.  Values are immutable and always kept canonical: radicands square-free,
no zero terms.  This field is closed under the four operations and under
complex conjugation, which is all the rest of the package needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Tuple

Rat = Fraction
_R0 = Fraction(0)
_R1 = Fraction(1)

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


def _merge_radicands(r: int, s: int) -> Tuple[int, int]:
    """sqrt(r)*sqrt(s) = k*sqrt(t) for square-free r, s; returns (t, k)."""
    import math

    g = math.gcd(r, s)
    return (r // g) * (s // g), g


class Scalar:
    """An element of Q(i, sqrt(r_1), sqrt(r_2), ...), canonical and immutable."""

    __slots__ = ("_t", "_hash")

    def __init__(self, terms: Dict[int, Coef], _canonical: bool = False):
        if not _canonical:
            clean: Dict[int, Coef] = {}
            for r, (a, b) in terms.items():
                s, k = _squarefree_split(r)
                if k != 1:
                    a, b = a * k, b * k
                if s in clean:
                    pa, pb = clean[s]
                    a, b = pa + a, pb + b
                clean[s] = (a, b)
            terms = {r: c for r, c in clean.items() if c[0] or c[1]}
        object.__setattr__(self, "_t", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    # --- constructors -------------------------------------------------

    @staticmethod
    def of(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            f = Fraction(x)
            return Scalar({1: (f, _R0)} if f else {}, _canonical=True)
        raise TypeError("cannot coerce %r to Scalar" % (x,))

    @staticmethod
    def gaussian(re, im) -> "Scalar":
        re, im = Fraction(re), Fraction(im)
        return Scalar({1: (re, im)} if (re or im) else {}, _canonical=True)

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
        coeff = Fraction(k, q.denominator)
        return Scalar({s: (coeff, _R0)}, _canonical=True)

    # --- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_rational(self) -> bool:
        return not self._t or (len(self._t) == 1 and 1 in self._t and not self._t[1][1])

    def as_fraction(self) -> Fraction:
        if not self._t:
            return _R0
        if self.is_rational():
            return self._t[1][0]
        raise ValueError("not rational: %s" % (self,))

    def radicands(self) -> Tuple[int, ...]:
        return tuple(sorted(self._t))

    def terms(self) -> Dict[int, Coef]:
        return dict(self._t)

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = Scalar.of(other)
        if not self._t:
            return other
        if not other._t:
            return self
        t = dict(self._t)
        for r, (a, b) in other._t.items():
            if r in t:
                pa, pb = t[r]
                na, nb = pa + a, pb + b
                if na or nb:
                    t[r] = (na, nb)
                else:
                    del t[r]
            else:
                t[r] = (a, b)
        return Scalar(t, _canonical=True)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({r: (-a, -b) for r, (a, b) in self._t.items()}, _canonical=True)

    def __sub__(self, other) -> "Scalar":
        return self + (-Scalar.of(other))

    def __rsub__(self, other) -> "Scalar":
        return Scalar.of(other) + (-self)

    def __mul__(self, other) -> "Scalar":
        other = Scalar.of(other)
        ta, tb = self._t, other._t
        if not ta or not tb:
            return ZERO
        acc: Dict[int, Coef] = {}
        for r, (a, b) in ta.items():
            for s, (c, d) in tb.items():
                if r == s:
                    t, k = 1, r
                elif r == 1:
                    t, k = s, 1
                elif s == 1:
                    t, k = r, 1
                else:
                    t, k = _merge_radicands(r, s)
                re = a * c - b * d
                im = a * d + b * c
                if k != 1:
                    re, im = re * k, im * k
                if t in acc:
                    pa, pb = acc[t]
                    acc[t] = (pa + re, pb + im)
                else:
                    acc[t] = (re, im)
        return Scalar({r: c for r, c in acc.items() if c[0] or c[1]}, _canonical=True)

    __rmul__ = __mul__

    def conj(self) -> "Scalar":
        return Scalar({r: (a, -b) for r, (a, b) in self._t.items()}, _canonical=True)

    def inv(self) -> "Scalar":
        """Multiplicative inverse, by a linear solve over the radical basis."""
        if not self._t:
            raise ZeroDivisionError("inverse of zero Scalar")
        if self.is_rational():
            a = self._t[1][0]
            return Scalar({1: (1 / a, _R0)}, _canonical=True)
        if len(self._t) == 1 and 1 in self._t:
            a, b = self._t[1]
            n = a * a + b * b
            return Scalar({1: (a / n, -b / n)}, _canonical=True)
        basis = _radical_closure(self.radicands())
        index = {r: j for j, r in enumerate(basis)}
        m = len(basis)
        # Column j of M holds the coefficients (over the radical basis) of
        # self * sqrt(basis[j]); solve M x = e_{index[1]}.
        cols = []
        for r in basis:
            prod = self * Scalar({r: (_R1, _R0)}, _canonical=True)
            col = [(_R0, _R0)] * m
            for s, c in prod._t.items():
                col[index[s]] = c
            cols.append(col)
        rhs = [(_R0, _R0)] * m
        rhs[index[1]] = (_R1, _R0)
        x = _solve_gaussian(cols, rhs, m)
        out: Dict[int, Coef] = {}
        for j, r in enumerate(basis):
            if x[j][0] or x[j][1]:
                out[r] = x[j]
        result = Scalar(out, _canonical=True)
        return result

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
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._t.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self._t)

    # --- text form --------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return "Scalar(%s)" % format_scalar(self)


def _solve_gaussian(cols, rhs, m):
    """Solve sum_j x_j * cols[j] = rhs over Q(i); columns are coefficient lists."""
    aug = [[cols[j][i] for j in range(m)] + [rhs[i]] for i in range(m)]
    for p in range(m):
        pivot = next((r for r in range(p, m) if aug[r][p] != (_R0, _R0)), None)
        if pivot is None:
            raise ArithmeticError("singular system in Scalar.inv")
        aug[p], aug[pivot] = aug[pivot], aug[p]
        pa, pb = aug[p][p]
        nrm = pa * pa + pb * pb
        inv = (pa / nrm, -pb / nrm)
        aug[p] = [_cmul(e, inv) for e in aug[p]]
        for r in range(m):
            if r != p and aug[r][p] != (_R0, _R0):
                f = aug[r][p]
                aug[r] = [(e[0] - f[0] * q[0] + f[1] * q[1], e[1] - f[0] * q[1] - f[1] * q[0])
                          for e, q in zip(aug[r], aug[p])]
    return [aug[i][m] for i in range(m)]


def _cmul(x: Coef, y: Coef) -> Coef:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _radical_closure(rads: Iterable[int]) -> Tuple[int, ...]:
    """Multiplicative closure of square-free radicands (always contains 1)."""
    group = {1}
    frontier = [r for r in rads if r != 1]
    for r in frontier:
        if r in group:
            continue
        new = {_merge_radicands(r, g)[0] for g in group}
        group |= new
        # products of new elements among themselves
        stable = False
        while not stable:
            stable = True
            for x in list(group):
                for y in list(group):
                    t, _ = _merge_radicands(x, y)
                    if t not in group:
                        group.add(t)
                        stable = False
    return tuple(sorted(group))


# --- parsing and printing ---------------------------------------------------

def _fmt_rat(q: Fraction) -> str:
    return str(q)


def format_scalar(x: Scalar) -> str:
    """Canonical text form, e.g. ``1/2 + 3/4*i*sqrt(2)``."""
    if x.is_zero():
        return "0"
    pieces = []  # (negative?, unsigned text)
    for r in x.radicands():
        a, b = x.terms()[r]
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


def parse_scalar(text: str) -> Scalar:
    """Parse the grammar emitted by format_scalar (plus parenthesized products)."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar text")
    val, pos = _parse_sum(s, 0)
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
            rad = Fraction(body)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarParseError("bad radicand %r" % body) from exc
        return Scalar.sqrt(rad), end + 1
    if s[pos] == "i" and (pos + 1 == len(s) or not s[pos + 1].isalnum()):
        return I, pos + 1
    j = pos
    while j < len(s) and (s[j].isdigit() or s[j] == "/"):
        j += 1
    if j == pos:
        raise ScalarParseError("cannot parse factor at %d in %r" % (pos, s))
    try:
        q = Fraction(s[pos:j])
    except (ValueError, ZeroDivisionError) as exc:
        raise ScalarParseError("bad rational %r" % s[pos:j]) from exc
    return Scalar.of(q), j


ZERO = Scalar({}, _canonical=True)
ONE = Scalar({1: (_R1, _R0)}, _canonical=True)
I = Scalar({1: (_R0, _R1)}, _canonical=True)


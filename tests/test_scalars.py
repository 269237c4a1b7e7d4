"""Field axioms and frozen values for the scalar tower Q(i, sqrt(r))."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr.scalars import (Scalar, ZERO, ONE, I, parse_scalar, format_scalar,
                         ScalarParseError)


fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)

radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    out = ZERO
    for _ in range(n_terms):
        re = draw(fractions)
        im = draw(fractions)
        rad = draw(radicands)
        out = out + Scalar.gaussian(re, im) * Scalar.sqrt(rad)
    return out


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@settings(max_examples=100, deadline=None)
@given(fractions, scalars())
def test_mixed_fraction_arithmetic(q, a):
    assert q + a == Scalar.of(q) + a
    assert q * a == Scalar.of(q) * a
    assert q - a == Scalar.of(q) - a


def test_sqrt_squares_to_radicand():
    for r in (2, 3, 5, Fraction(1, 2), Fraction(9, 4)):
        s = Scalar.sqrt(r)
        assert s * s == Scalar.of(r)


def test_sqrt_normalizes_square_factors():
    # sqrt(8) = 2 sqrt(2), so both live on the same radicand
    assert Scalar.sqrt(8) == Scalar.of(2) * Scalar.sqrt(2)
    assert Scalar.sqrt(Fraction(1, 2)) == Scalar.sqrt(2) / 2


def test_i_squares_to_minus_one():
    assert I * I == Scalar.of(-1)


def test_as_fraction_accepts_only_rationals():
    assert Scalar.of(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Scalar.sqrt(2).as_fraction()
    with pytest.raises(ValueError):
        I.as_fraction()


def test_independent_radicals_do_not_collapse():
    # 1 + sqrt(2) + sqrt(3) is nonzero and not rational
    v = ONE + Scalar.sqrt(2) + Scalar.sqrt(3)
    assert v
    assert not v.is_rational()
    # sqrt(2) * sqrt(3) = sqrt(6)
    assert Scalar.sqrt(2) * Scalar.sqrt(3) == Scalar.sqrt(6)


def test_frozen_values():
    assert format_scalar(ONE / (Scalar.of(2) * Scalar.sqrt(2))) == "1/4*sqrt(2)"
    assert format_scalar(I * Scalar.sqrt(3) / 3) == "1/3*i*sqrt(3)"


def test_parse_rejects_garbage():
    for bad in ("", "sqrt(", "1+", "x", "2**3"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_depth():
    assert parse_scalar("(" * 50 + "1/2" + ")" * 50) == Scalar.of(Fraction(1, 2))
    with pytest.raises(ScalarParseError, match="nested too deeply"):
        parse_scalar("(" * 3000 + "1" + ")" * 3000)


def test_parse_rejects_zero_denominators():
    for bad in ("1/0", "sqrt(1/0)", "2*(3/0)", "1 + 1/0*i"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


# --- hash contract -------------------------------------------------------------

def test_rational_scalars_hash_like_their_value():
    assert len({Scalar.of(1), 1}) == 1
    assert len({Scalar.of(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({ZERO, 0, Fraction(0)}) == 1
    assert {Scalar.of(-3): "x"}[-3] == "x"


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_equal_scalars_hash_equal(a, b):
    for x, y in ((a, (a + b) - b), (a, (a * b) / b if b else a), (a, b)):
        if x == y:
            assert hash(x) == hash(y)
    if a.is_rational():
        assert hash(a) == hash(a.as_fraction())


# --- differential oracle ---------------------------------------------------------
#
# _RefScalar is the earlier representation, kept as an independent reference:
# one Fraction pair per radicand, and the inverse by a Gaussian-rational linear
# solve over the radical basis.  The Scalar under test stores integer
# numerators over one denominator and inverts through conjugates.

def _ref_merge(r, s):
    g = math.gcd(r, s)
    return (r // g) * (s // g), g


class _RefScalar:
    def __init__(self, terms):
        self.t = {r: (Fraction(a), Fraction(b))
                  for r, (a, b) in terms.items() if a or b}

    @staticmethod
    def term(re, im, r):
        return _RefScalar({r: (re, im)})

    def __add__(self, other):
        t = dict(self.t)
        for r, (a, b) in other.t.items():
            pa, pb = t.get(r, (0, 0))
            t[r] = (pa + a, pb + b)
        return _RefScalar(t)

    def __neg__(self):
        return _RefScalar({r: (-a, -b) for r, (a, b) in self.t.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        for r, (a, b) in self.t.items():
            for s, (c, d) in other.t.items():
                t, k = _ref_merge(r, s)
                pa, pb = acc.get(t, (0, 0))
                acc[t] = (pa + (a * c - b * d) * k, pb + (a * d + b * c) * k)
        return _RefScalar(acc)

    def conj(self):
        return _RefScalar({r: (a, -b) for r, (a, b) in self.t.items()})

    def inv(self):
        basis = _ref_radical_closure(self.t)
        index = {r: j for j, r in enumerate(basis)}
        m = len(basis)
        cols = []
        for r in basis:
            prod = self * _RefScalar.term(1, 0, r)
            col = [(Fraction(0), Fraction(0))] * m
            for s, c in prod.t.items():
                col[index[s]] = c
            cols.append(col)
        rhs = [(Fraction(0), Fraction(0))] * m
        rhs[index[1]] = (Fraction(1), Fraction(0))
        x = _ref_solve_gaussian(cols, rhs, m)
        return _RefScalar({r: x[j] for j, r in enumerate(basis)})

    def __eq__(self, other):
        return self.t == other.t


def _ref_cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_solve_gaussian(cols, rhs, m):
    zero = (Fraction(0), Fraction(0))
    aug = [[cols[j][i] for j in range(m)] + [rhs[i]] for i in range(m)]
    for p in range(m):
        pivot = next(r for r in range(p, m) if aug[r][p] != zero)
        aug[p], aug[pivot] = aug[pivot], aug[p]
        pa, pb = aug[p][p]
        nrm = pa * pa + pb * pb
        aug[p] = [_ref_cmul(e, (pa / nrm, -pb / nrm)) for e in aug[p]]
        for r in range(m):
            if r != p and aug[r][p] != zero:
                f = aug[r][p]
                aug[r] = [(e[0] - f[0] * q[0] + f[1] * q[1],
                           e[1] - f[0] * q[1] - f[1] * q[0])
                          for e, q in zip(aug[r], aug[p])]
    return [aug[i][m] for i in range(m)]


def _ref_radical_closure(rads):
    group = {1}
    for r in rads:
        group |= {_ref_merge(r, g)[0] for g in group}
    return tuple(sorted(group))


def _ref_format(x):
    if not x.t:
        return "0"
    pieces = []
    for r in sorted(x.t):
        a, b = x.t[r]
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
            pieces.append((b < 0, head + ("*" + tail if tail else "")))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out


oracle_radicands = st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30])


@st.composite
def scalar_pairs(draw):
    """The same element as a Scalar and as a _RefScalar, up to 4 terms."""
    n_terms = draw(st.integers(min_value=0, max_value=4))
    new, ref = ZERO, _RefScalar({})
    for _ in range(n_terms):
        re, im = draw(fractions), draw(fractions)
        rad = draw(oracle_radicands)
        new = new + Scalar.gaussian(re, im) * Scalar.sqrt(rad)
        ref = ref + _RefScalar.term(re, im, rad)
    return new, ref


def _assert_canonical(x):
    d, t = x._d, x._t
    if t is None:  # the slot form of a value in Q(i)
        assert isinstance(x._re, int) and isinstance(x._im, int)
        t = {1: (x._re, x._im)} if x._re or x._im else {}
    else:
        assert t and set(t) != {1}, "a value in Q(i) outside the slot form"
    assert isinstance(d, int) and d > 0
    assert all(isinstance(v, int) for pair in t.values() for v in pair)
    assert all(a or b for a, b in t.values()), "zero pair"
    assert math.gcd(d, *(v for pair in t.values() for v in pair)) == 1
    assert all(r % (k * k) for r in t for k in range(2, r + 1)), "square factor"


def _assert_same(x, ref):
    _assert_canonical(x)
    assert x.terms() == ref.t
    assert format_scalar(x) == _ref_format(ref)


@settings(max_examples=200, deadline=None)
@given(scalar_pairs(), scalar_pairs())
def test_differential_against_reference(pa, pb):
    (a, ra), (b, rb) = pa, pb
    _assert_same(a, ra)
    _assert_same(a + b, ra + rb)
    _assert_same(a - b, ra - rb)
    _assert_same(a * b, ra * rb)
    _assert_same(a.conj(), ra.conj())
    _assert_same(-a, -ra)
    assert (a == b) == (ra == rb)
    assert (a - b == ZERO) == (ra == rb)
    if b:
        _assert_same(b.inv(), rb.inv())
        _assert_same(a / b, ra * rb.inv())


@settings(max_examples=100, deadline=None)
@given(scalar_pairs(), fractions)
def test_differential_rational_operands(pa, q):
    a, ra = pa
    rq = _RefScalar.term(q, 0, 1)
    _assert_same(a * q, ra * rq)
    _assert_same(q * a, ra * rq)
    _assert_same(a + q, ra + rq)
    if q:
        _assert_same(a / q, ra * rq.inv())


# --- the Q(i) slot form and the radicand tables ------------------------------------
#
# A value in Q(i) is kept in integer slots and handled by its own arithmetic,
# every other value by radicand tables.  The oracles here share neither:
# (re, im) pairs of Fractions for Q(i), and a _RefScalar result rebuilt
# through the generic Scalar(terms) constructor for values with sqrt 2 or
# sqrt 3.

gaussian_pairs = st.tuples(fractions, fractions)


def _pair_inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _assert_scalar_terms(x):
    assert all(type(v) is Fraction for pair in x.terms().values() for v in pair)


@settings(max_examples=200, deadline=None)
@given(gaussian_pairs, gaussian_pairs)
def test_gaussian_fast_path_matches_pair_arithmetic(x, y):
    a, b = Scalar.gaussian(*x), Scalar.gaussian(*y)
    want = {
        "a": (a, x),
        "+": (a + b, (x[0] + y[0], x[1] + y[1])),
        "-": (a - b, (x[0] - y[0], x[1] - y[1])),
        "*": (a * b, _ref_cmul(x, y)),
        "neg": (-a, (-x[0], -x[1])),
        "conj": (a.conj(), (x[0], -x[1])),
    }
    if any(y):
        want["inv"] = (b.inv(), _pair_inv(y))
        want["/"] = (a / b, _ref_cmul(x, _pair_inv(y)))
    for op, (got, pair) in want.items():
        _assert_canonical(got)
        _assert_scalar_terms(got)
        assert got.gaussian_parts() == pair, op
        assert got == Scalar({1: pair}), op


radical_terms = st.dictionaries(st.sampled_from([1, 2, 3]),
                                gaussian_pairs, min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(radical_terms, radical_terms)
def test_radical_operations_match_a_rebuild(s, t):
    a, b = Scalar(s), Scalar(t)
    ra, rb = _RefScalar(s), _RefScalar(t)
    got = {"+": (a + b, ra + rb), "-": (a - b, ra - rb),
           "*": (a * b, ra * rb), "neg": (-a, -ra),
           "conj": (a.conj(), ra.conj())}
    if b:
        got["inv"] = (b.inv(), rb.inv())
        got["/"] = (a / b, ra * rb.inv())
    for op, (x, ref) in got.items():
        _assert_canonical(x)
        _assert_scalar_terms(x)
        rebuilt = Scalar(ref.t)
        assert x == rebuilt, op
        assert hash(x) == hash(rebuilt), op


@settings(max_examples=150, deadline=None)
@given(scalar_pairs(), fractions)
def test_canonical_form_and_rational_hashes(pa, q):
    a, _ = pa
    g = Scalar.gaussian(q, 1)
    for x in (a, a * a.conj(), a - a, g, Scalar.of(q)):
        again = Scalar(x.terms())
        assert again == x and hash(again) == hash(x)
        _assert_scalar_terms(x)
    # a rational value equals and hashes like its Fraction, however made
    norm = q * q + 1
    for x, want in ((Scalar.of(q), q), (Scalar.gaussian(q, 0), q),
                    (Scalar.sqrt(2) * q * Scalar.sqrt(2) / 2, q),
                    ((Scalar.of(q) + I) - I, q), (g * g.conj(), norm),
                    (g.inv() * g.conj().inv(), 1 / norm)):
        assert x == want and x.is_rational()
        assert hash(x) == hash(want) and x.as_fraction() == want

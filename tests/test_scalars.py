"""Field axioms and frozen values for the scalar tower Q(i, sqrt(r))."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr import catalog, dimensions as dm
from hkr.scalars import (NotReducible, Reduction, Scalar, ZERO, ONE, I,
                         add_product, parse_scalar, format_scalar,
                         reduction, ScalarParseError, _is_prime)


fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)

radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


def _gaussian(re, im):
    """re + im*i, built by the field operations."""
    return Scalar.of(re) + Scalar.of(im) * I


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    out = ZERO
    for _ in range(n_terms):
        re = draw(fractions)
        im = draw(fractions)
        rad = draw(radicands)
        out = out + _gaussian(re, im) * Scalar.sqrt(rad)
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


def test_zero_has_no_inverse():
    for zero in (ZERO, ONE - ONE, Scalar.sqrt(2) - Scalar.sqrt(2)):
        with pytest.raises(ZeroDivisionError):
            zero.inv()
        with pytest.raises(ZeroDivisionError):
            ONE / zero
    with pytest.raises(ZeroDivisionError):
        Scalar.sqrt(3) / 0


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


def test_radicands_with_a_prime_factor_of_2_16_or_more_are_refused():
    # 65521 is the largest prime below 2^16 and 65537 the least above it
    assert Scalar.sqrt(65521) * Scalar.sqrt(65521) == 65521
    v = Scalar.sqrt(65521) + Scalar.sqrt(Fraction(3, 65519))
    assert v * v.inv() == 1
    for bad in (65537, 2 * 65537, Fraction(1, 65537), 65537 * 65539):
        with pytest.raises(ValueError, match="prime factor of 2\\^16"):
            Scalar.sqrt(bad)
    with pytest.raises(ScalarParseError, match="bad radicand"):
        parse_scalar("sqrt(1000000000039)")


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
        new = new + _gaussian(re, im) * Scalar.sqrt(rad)
        ref = ref + _RefScalar.term(re, im, rad)
    return new, ref


def _assert_canonical(x):
    d, t = x._d, x._t
    if t is None:  # the slot form of a value with one radicand
        assert all(isinstance(v, int) for v in (x._re, x._im, x._r))
        assert x._r >= 1
        t = {x._r: (x._re, x._im)} if x._re or x._im else {}
        assert t or x is ZERO
    else:
        assert len(t) > 1, "a value with one radicand outside the slot form"
        assert x._re == x._im == x._r == 0
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


# --- the Q(i) arithmetic and the radicand tables ----------------------------------
#
# A value in Q(i) is kept in integer slots with radicand 1, a value with two
# or more radicands in a radicand table.  The oracles here share neither:
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
    a, b = _gaussian(*x), _gaussian(*y)
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
    g = _gaussian(q, 1)
    for x in (a, a * a.conj(), a - a, g, Scalar.of(q)):
        again = Scalar(x.terms())
        assert again == x and hash(again) == hash(x)
        _assert_scalar_terms(x)
    # a rational value equals and hashes like its Fraction, however made
    norm = q * q + 1
    for x, want in ((Scalar.of(q), q), (_gaussian(q, 0), q),
                    (Scalar.sqrt(2) * q * Scalar.sqrt(2) / 2, q),
                    ((Scalar.of(q) + I) - I, q), (g * g.conj(), norm),
                    (g.inv() * g.conj().inv(), 1 / norm)):
        assert x == want and x.is_rational()
        assert hash(x) == hash(want) and x.as_fraction() == want


# --- one zero and the fused multiply-add -------------------------------------
#
# The linear algebra tests entries for zero by identity with ZERO, so every
# operation must return that one object for a zero value; and add_product
# must agree with the two operations it fuses, in value and in canonical form.

operands = st.one_of(gaussian_pairs.map(lambda x: _gaussian(*x)), scalars())


def _zeros_made_from(v):
    """Zeros that the operations make from v, on every path of each."""
    z = v - v
    made = [z, v + (-v), -v + v, v * ZERO, ZERO * v, v * 0, 0 * v,
            v * Fraction(0), Fraction(0) * v, -z, z.conj(), z * v,
            (v + ONE) - (v + ONE), (v - v.conj()) - (v - v.conj()),
            Scalar(v.terms()) - v, Scalar({r: (-a, -b) for r, (a, b)
                                         in v.terms().items()}) + v]
    if v:
        made += [ZERO / v, z / v, 0 / v, v * v.inv() - ONE]
    return made


def test_the_constructors_make_no_second_zero():
    made = [Scalar.of(0), Scalar.of(Fraction(0)), Scalar.sqrt(0),
            Scalar.sqrt(Fraction(0, 5)), Scalar({}),
            Scalar({1: (Fraction(0), Fraction(0))}),
            Scalar({2: (Fraction(1), Fraction(0)), 8: (Fraction(-1, 2), 0)}),
            Scalar({1: (Fraction(1, 3), 0), 9: (Fraction(-1, 9), 0)}),
            Scalar.sqrt(2) * Scalar.sqrt(3) - Scalar.sqrt(6),
            (Scalar.sqrt(2) + I) * (Scalar.sqrt(2) - I) - 3,
            copy.copy(ZERO), copy.deepcopy(ONE - ONE),
            pickle.loads(pickle.dumps(ZERO)), parse_scalar("1/2 - 1/2")]
    assert all(z is ZERO for z in made)
    assert copy.copy(Scalar.sqrt(2) + I) == Scalar.sqrt(2) + I


@settings(max_examples=150, deadline=None)
@given(gaussian_pairs, scalars())
def test_every_zero_is_the_shared_zero(x, a):
    for v in (_gaussian(*x), a, a + _gaussian(*x), Scalar.sqrt(2) + I):
        for k, z in enumerate(_zeros_made_from(v)):
            assert z is ZERO, (v, k)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.none(), operands), operands, operands)
def test_add_product_is_x_plus_c_times_e(x, c, e):
    want = c * e if x is None else x + c * e
    got = add_product(x, c, e)
    _assert_canonical(got)
    assert got == want and hash(got) == hash(want)
    assert (got is ZERO) == (want == 0)
    # results that cancel to zero
    assert add_product(-(c * e), c, e) is ZERO
    assert add_product(c * e, -c, e) is ZERO
    if x is not None:
        assert add_product(got, -c, e) == x


def test_add_product_on_mixed_operands():
    r2, half = Scalar.sqrt(2), Scalar.of(Fraction(1, 2))
    g = Scalar.of(Fraction(1, 6)) + Scalar.of(Fraction(5, 4)) * I
    for x, c, e, want in (
            (None, half, I, I / 2),
            (ONE, half, Scalar.of(2), Scalar.of(2)),
            (g, g, ONE, g * 2),
            (Scalar.of(Fraction(1, 4)), half, -half, ZERO),
            (r2, r2, r2, r2 + 2),
            (ONE, r2, r2, Scalar.of(3)),
            (r2, I, ONE, r2 + I),
            (None, r2 + I, r2 - I, Scalar.of(3)),
            (-r2 * g, g, r2, ZERO),
            (Scalar.of(-2), r2, r2, ZERO)):
        got = add_product(x, c, e)
        _assert_canonical(got)
        assert got == want, (x, c, e)
        if want == 0:
            assert got is ZERO


# --- the slot form of one radicand -------------------------------------------
#
# A value (a + b*i) * sqrt(r) is kept in the integer slots whatever r is; the
# routes below reach the same value through the slot arithmetic, the radicand
# tables and the mixed operations, and must all give one object state: equal,
# hashing by the table formula, with the same terms and text.

slot_radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30])
nonzero_fractions = fractions.filter(bool)


def _table_hash(x):
    """hash((d, frozenset({r: (a, b)}.items()))) over x's integer numerators
    and common denominator: the hash of every value with a radical."""
    terms = x.terms()
    d = math.lcm(*(v.denominator for pair in terms.values() for v in pair))
    return hash((d, frozenset({r: (int(a * d), int(b * d))
                               for r, (a, b) in terms.items()}.items())))


def _sqrt_by_primes(r):
    """sqrt(r) as the product of the square roots of its primes."""
    out = ONE
    for p in (2, 3, 5, 7):
        if r % p == 0:
            out = out * Scalar.sqrt(p)
    return out


def _routes(r, a, b, s):
    """The value (a + b*i) * sqrt(r) by many routes; s is a second radicand
    other than r."""
    g = _gaussian(a, b)
    want = Scalar({r: (a, b)})
    other = Scalar.sqrt(s) * (1 + I)  # a term on a radicand other than r
    mixed = Scalar.sqrt(s) * I + 2  # two radicands, so a radicand table
    routes = {
        "terms": want,
        "sqrt": Scalar.sqrt(r) * g,
        "sqrt*g": g * Scalar.sqrt(r),
        "square part": Scalar.sqrt(r * 9) * g / 3,
        "primes": _sqrt_by_primes(r) * g,
        "sqrt(6r)*sqrt(6)": Scalar.sqrt(6 * r) * Scalar.sqrt(6) * g / 6,
        "cancel": (want + other) - other,
        "cancel neg": (want + other) + (-other),
        "cancel table": (want + mixed) - mixed,
        "inv inv": want.inv().inv(),
        "conj conj": want.conj().conj(),
        "neg neg": -(-want),
        "int": want * 3 / 3,
        "rint": 2 * want / 2,
        "fraction": want * Fraction(5, 7) * Fraction(7, 5),
        "rfraction": Fraction(-3, 4) * (Fraction(-4, 3) * want),
        "div": want / (want + want) * (want + want),
        "ap match": add_product(want - Scalar.sqrt(r) * 2, Scalar.sqrt(r),
                                Scalar.of(2)),
        "ap mismatch": add_product(want - other * I, other, I),
        "ap none": add_product(None, Scalar.sqrt(r), g),
        "copy": copy.copy(want),
        "deepcopy": copy.deepcopy(want),
        "pickle": pickle.loads(pickle.dumps(want)),
        "parse": parse_scalar(format_scalar(want)),
    }
    if r == 6:
        routes["sqrt2*sqrt3"] = Scalar.sqrt(2) * Scalar.sqrt(3) * g
    return want, routes


@settings(max_examples=150, deadline=None)
@given(slot_radicands, nonzero_fractions, fractions, slot_radicands)
def test_every_route_to_a_one_radicand_value_agrees(r, a, b, s):
    if s == r:
        s = 11
    want, routes = _routes(r, a, b, s)
    terms = {r: (a, b)}
    for name, x in routes.items():
        _assert_canonical(x)
        assert x == want, name
        assert x.terms() == terms, name
        assert str(x) == str(want), name
        assert x.radicands() == (r,), name
        assert hash(x) == hash(want), name
        if r != 1:
            assert hash(x) == _table_hash(x), name
    if r != 1:
        assert not want.is_rational() and want.gaussian_parts() is None
        with pytest.raises(ValueError):
            want.as_fraction()
    # the slot operations against the closed forms, and one zero
    n = (a * a + b * b) * r
    assert want.inv() == Scalar({r: (a / n, -b / n)})
    assert want.conj() == Scalar({r: (a, -b)})
    assert -want == Scalar({r: (-a, -b)})
    assert want * Fraction(2, 3) == Scalar({r: (a * 2 / 3, b * 2 / 3)})
    for z in (want - want, want + (-want), -want + want,
              add_product(-want, Scalar.sqrt(r), _gaussian(a, b)),
              add_product(want, -want.inv(), want * want)):
        assert z is ZERO


@pytest.mark.parametrize("r, s, want", [
    (2, 3, Scalar({6: (Fraction(1), Fraction(0))})),
    (6, 6, Scalar.of(6)),
    (6, 10, Scalar({15: (Fraction(2), Fraction(0))})),
    (2, 8, Scalar.of(4)),
    (15, 35, Scalar({21: (Fraction(5), Fraction(0))}))])
def test_products_of_square_roots_take_out_the_common_factor(r, s, want):
    x, y = Scalar.sqrt(r), Scalar.sqrt(s)
    for got in (x * y, y * x, add_product(None, x, y),
                add_product(ZERO, x, y), add_product(want, x, y) - want):
        _assert_canonical(got)
        assert got == want and hash(got) == hash(want)
        assert got.terms() == want.terms() and str(got) == str(want)


def test_radical_hashes_keep_the_table_formula():
    # pinned values, so set and dict orders of radical Scalars do not move
    half = Scalar.sqrt(Fraction(1, 2))
    for x, (d, r, a, b) in ((Scalar.sqrt(2), (1, 2, 1, 0)),
                            (Scalar.sqrt(3) * I / 2, (2, 3, 0, 1)),
                            (half * (1 - I), (2, 2, 1, -1))):
        assert hash(x) == hash((d, frozenset({r: (a, b)}.items())))


# The construction's normalisations d_i = sqrt(-c_i/b_i) and the Cayley factor
# 1/(2 sqrt 2) give each coordinate of the triple and the section one radicand
# at most, so the construction and the sampling stay on the slot arithmetic.
ONE_RADICAND_FORMS = sorted(catalog.form_cli_text(f)
                            for f in catalog.standard_forms())
ONE_RADICAND_FORMS += ["su:p=4,q=4", "sp_r:n=4", "so_star:n=5"]


@pytest.mark.parametrize("form", ONE_RADICAND_FORMS)
def test_triple_and_section_coordinates_have_one_radicand(form):
    an = dm.analyze(catalog.build(catalog.parse_form(form)))
    triple = an.triple
    for name, vec in ([("e", triple.e), ("f", triple.f), ("x", triple.x)]
                      + [("section %d" % k, v)
                         for k, v in enumerate(an.section.e_list)]):
        many = [str(c) for c in vec if len(c.radicands()) > 1]
        assert not many, (form, name, many)


# --- reduction mod p ------------------------------------------------------------

def _keeps_the_operations(red, a, b):
    """Whether red keeps a + b, a * b and the inverses of a and b."""
    p = red.p
    if red(a + b) != (red(a) + red(b)) % p or red(a * b) != red(a) * red(b) % p:
        return False
    return all(red(x.inv()) * red(x) % p == 1 for x in (a, b) if x)


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_reduction_keeps_sum_product_and_inverse(a, b):
    # values of up to three radicand terms, radicands 2, 3, 5, 6, 7, 10
    assert _keeps_the_operations(reduction([a, b]), a, b)


def _prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("radicands, modulus", [
    ((), 8), ((2,), 8), ((3,), 24), ((6, 10), 120), ((105, 14), 840),
    ((11, 13, 17), 8 * 11 * 13 * 17)])
def test_the_prime_is_prime_and_one_mod_8_times_the_odd_radicand_primes(
        radicands, modulus):
    p = reduction([Scalar.sqrt(r) for r in radicands]).p
    assert p > 2 ** 30 and p % modulus == 1
    assert _prime_by_trial_division(p)
    # the smallest such prime: no smaller candidate above 2^30 is prime
    assert not any(_prime_by_trial_division(q)
                   for q in range(p - modulus, 2 ** 30, -modulus))


# strong pseudoprimes to the first 1, 2, ..., 9 prime bases, as products of
# their prime factors: Miller-Rabin needs more bases than each to see them
_STRONG_PSEUDOPRIMES = [
    (23, 89), (829, 1657), (2251, 11251), (151, 751, 28351),
    (6763, 10627, 29947), (1303, 16927, 157543), (10670053, 32010157),
    (149491, 747451, 34233211)]


def test_miller_rabin_agrees_with_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if _prime_by_trial_division(n)]
    for n in range(2 ** 30, 2 ** 30 + 400):
        assert _is_prime(n) == _prime_by_trial_division(n), n
    for factors in _STRONG_PSEUDOPRIMES:
        assert not _is_prime(math.prod(factors)), factors


def _true_roots(red, radicands):
    return {-1: red(I), **{r: red(Scalar.sqrt(r)) for r in radicands}}


def test_a_root_of_6_chosen_apart_from_those_of_2_and_3_is_caught():
    s2, s3 = Scalar.sqrt(2), Scalar.sqrt(3)
    red = reduction([s2, s3])
    roots = _true_roots(red, (2, 3))
    assert red(Scalar.sqrt(6)) == roots[2] * roots[3] % red.p
    # -sqrt(2)*sqrt(3) is a root of 6 as well, but the map is then no
    # homomorphism
    bad = Reduction(red.p, {**roots, 6: -roots[2] * roots[3] % red.p})
    assert _keeps_the_operations(Reduction(red.p, roots), s2, s3)
    assert not _keeps_the_operations(bad, s2, s3)


def test_an_i_that_is_no_root_of_minus_one_is_caught():
    red = reduction([Scalar.sqrt(2)])
    bad = Reduction(red.p, {**_true_roots(red, (2,)), -1: 2})
    assert not _keeps_the_operations(bad, I, I)


def test_the_reduction_declines_what_it_cannot_map():
    red = reduction([Scalar.sqrt(2)])
    p = red.p
    for x in (Fraction(1, p), Scalar.sqrt(2) / (3 * p), I / p + Scalar.sqrt(2)):
        with pytest.raises(NotReducible, match="divides the denominator"):
            red(x)
    with pytest.raises(NotReducible, match=r"sqrt\(3\) is not mapped"):
        red(Scalar.sqrt(6))
    assert red(Fraction(1, p + 1)) * (p + 1) % p == 1
    # 8 times the odd primes up to 67 leaves no p in the proven range
    primes = [q for q in range(3, 68) if _prime_by_trial_division(q)]
    with pytest.raises(NotReducible, match="no proven prime"):
        reduction([Scalar.sqrt(q) for q in primes])

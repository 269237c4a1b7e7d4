"""Self-verification suites: every identity the construction promises,
re-checked from scratch with deterministic sampling.

Each check returns a CheckResult rather than raising, so a run reports the
first counterexample instead of a bare traceback.  Sampling checks draw from
a PRNG seeded per (seed, form, check), making runs reproducible and
independent of check ordering.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import catalog
from . import dimensions as dm
from . import linalg as la
from . import roots as rt
from . import triples as tp
from .errors import HkrError, InvalidParams, SizeBound
from .scalars import Scalar, ZERO

NEG_ONE = Scalar.of(-1)
TWO = Scalar.of(2)


@dataclass
class CheckResult:
    form: str
    check: str
    ok: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        msg = " - " + self.detail if self.detail else ""
        return "%-12s %-22s %s%s" % (self.form, self.check, status, msg)


def _run(form: str, check: str, fn: Callable[[], Optional[str]]
         ) -> CheckResult:
    t0 = time.perf_counter()
    try:
        detail = fn()
        return CheckResult(form, check, True, detail or "",
                           time.perf_counter() - t0)
    except AssertionError as exc:
        return CheckResult(form, check, False, str(exc) or "assertion failed",
                           time.perf_counter() - t0)
    except Exception as exc:
        # a typed HkrError or an unexpected fault: either way the check
        # fails and the rest of the run goes on
        return CheckResult(form, check, False,
                           "%s: %s" % (type(exc).__name__, exc),
                           time.perf_counter() - t0)


def _rng(seed: int, form: str, check: str) -> random.Random:
    return random.Random("%d/%s/%s" % (seed, form, check))


def _random_gamma(rng: random.Random, k: int) -> List[Scalar]:
    return [Scalar.of(rng.randint(-9, 9)) / rng.randint(1, 4)
            for _ in range(k)]


def fiber_match_supported(structure) -> bool:
    """Characteristic-polynomial fiber matching needs every invariant degree
    to appear as a coefficient; the so(p,p) middle invariant does not."""
    return not (structure.family == "so_pq"
                and structure.params["p"] == structure.params["q"])


# --- per-form checks --------------------------------------------------------------

def _check_roots(an: dm.FormAnalysis) -> Optional[str]:
    S = an.structure
    data = an.root_data
    total = sum(len(v) for v in data.root_spaces.values())
    assert total + len(data.centralizer) == S.dim, "root spaces + c_g(a) != g"
    simples = rt.simple_system(data)
    assert len(simples) == S.rank_a, "simple system size != rank"
    lam_label, reduced_label = rt.classify_type(data)
    fid = catalog.form_id(S.family, **S.params)
    want_lam = catalog.reference_restricted_type(fid)
    want_red = catalog.reference_reduced_type(fid)
    assert rt.type_equivalent(lam_label, want_lam), \
        "restricted type %s, reference %s" % (lam_label, want_lam)
    assert rt.type_equivalent(reduced_label, want_red), \
        "reduced type %s, reference %s" % (reduced_label, want_red)
    return "%s (%d roots)" % (lam_label, len(data.root_spaces))


def _check_tds(an: dm.FormAnalysis) -> Optional[str]:
    S = an.structure
    tds = an.tds
    assert tuple(S.bracket_coords(tds.w, tds.e_c)) == \
        tuple(TWO * v for v in tds.e_c), "[w, e_c] != 2 e_c"
    assert tuple(S.bracket_coords(tds.w, tds.f_c)) == \
        tuple(NEG_ONE * TWO * v for v in tds.f_c), "[w, f_c] != -2 f_c"
    assert tuple(S.bracket_coords(tds.e_c, tds.f_c)) == tds.w, \
        "[e_c, f_c] != w"
    assert all(b < 0 for b in tds.b), "some b_i >= 0"
    assert all(c > 0 for c in tds.c), "some c_i <= 0"
    a_lo = S.dim_h
    for lam in tds.simples:
        val = sum((tds.w[a_lo + j] * lam[j] for j in range(S.rank_a)), ZERO)
        assert val == 2, "lambda(w) = %s" % val
    for i in range(S.rank_a):
        di = tds.d[i]
        assert di * di == Scalar.of(-tds.c[i] / tds.b[i]), "d_i^2 != -c_i/b_i"
    return "rank %d" % S.rank_a


def _check_triple(an: dm.FormAnalysis) -> Optional[str]:
    S = an.structure
    t = an.triple
    assert tuple(S.bracket_coords(t.x, t.e)) == t.e, "[x, e] != e"
    assert tuple(S.bracket_coords(t.x, t.f)) == \
        tuple(NEG_ONE * v for v in t.f), "[x, f] != -f"
    assert tuple(S.bracket_coords(t.e, t.f)) == t.x, "[e, f] != x"
    assert S.theta_coords(t.e) == tuple(NEG_ONE * v for v in t.e), \
        "e not in m^C"
    assert S.theta_coords(t.f) == tuple(NEG_ONE * v for v in t.f), \
        "f not in m^C"
    assert S.theta_coords(t.x) == t.x, "x not in h^C"
    for v, what in ((t.e, "e"), (t.f, "f")):
        assert la.is_nilpotent(S.matrix_of(v)), "%s not nilpotent" % what
    return None


def _check_split_sub(an: dm.FormAnalysis) -> Optional[str]:
    fid = catalog.form_id(an.structure.family, **an.structure.params)
    entry = catalog.lookup_table1(fid)
    want = catalog.algebra_label_dim(entry.split_sub)
    assert an.split_sub.dim == want, \
        "dim %d, table %d" % (an.split_sub.dim, want)
    return "%s (dim %d, %s)" % (entry.split_sub, an.split_sub.dim,
                                an.split_sub.reduced_type)


def _check_modules(an: dm.FormAnalysis) -> Optional[str]:
    S = an.structure
    dec = an.decomposition
    assert sum(2 * bl.m - 1 for bl in dec.blocks) == S.dim, \
        "sum(2m - 1) != dim g^C"
    trivial = sum(1 for bl in dec.blocks if bl.m == 1)
    if an.quasi_split:
        assert trivial == dec.dim_z, \
            "quasi-split but %d trivial modules, dim z = %d" % (trivial,
                                                                dec.dim_z)
    else:
        assert trivial > dec.dim_z, \
            "not quasi-split but %d trivial modules, dim z = %d" % (
                trivial, dec.dim_z)
    fid = catalog.form_id(S.family, **S.params)
    assert an.quasi_split == catalog.reference_quasi_split(fid), \
        "quasi-split flag %s, reference says %s" % (
            an.quasi_split, catalog.reference_quasi_split(fid))
    return "m-degrees %s" % sorted(bl.m for bl in dec.located("m"))


def _check_regularity(an: dm.FormAnalysis, section, seed: int, samples: int
                      ) -> Optional[str]:
    S = an.structure
    basis = section()
    rng = _rng(seed, S.name, "regularity")
    for k in range(samples):
        gamma = _random_gamma(rng, basis.rank)
        assert tp.section_point_regular(basis, gamma), \
            "sample %d not regular: gamma=%s" % (k, gamma)
    return "%d samples" % samples


def _check_invariance(an: dm.FormAnalysis, section, seed: int, samples: int
                      ) -> Optional[str]:
    S = an.structure
    basis = section()
    conjs = tp.invariance_conjugators(S, samples)
    rng = _rng(seed, S.name, "invariance")
    for k, (g, ginv) in enumerate(conjs):
        gamma = _random_gamma(rng, basis.rank)
        pt = tp.section_point(basis, gamma)
        moved = tp.conjugate_coords(S, g, ginv, pt)
        assert tuple(S.theta_coords(moved)) == \
            tuple(NEG_ONE * v for v in moved), "conjugate %d left m^C" % k
        cp0 = la.charpoly(S.matrix_of(pt))
        cp1 = la.charpoly(S.matrix_of(moved))
        assert tuple(cp0) == tuple(cp1), \
            "conjugate %d changed the characteristic polynomial" % k
    return "%d conjugators" % len(conjs)


def _check_injectivity(an: dm.FormAnalysis, section, seed: int, pairs: int
                       ) -> Optional[str]:
    """pairs + 1 seeded gammas, one charpoly each; two distinct gammas with
    equal charpolys fail, so every pair among them is compared."""
    S = an.structure
    if not fiber_match_supported(S):
        return "skipped: charpoly does not separate fibers here"
    basis = section()
    rng = _rng(seed, S.name, "injectivity")
    seen = {}  # charpoly -> (draw, gamma)
    for k in range(pairs + 1):
        gamma = _random_gamma(rng, basis.rank)
        cp = tuple(la.charpoly(S.matrix_of(tp.section_point(basis, gamma))))
        j, first = seen.setdefault(cp, (k, gamma))
        assert first == gamma, \
            "gammas %d and %d: distinct gamma, equal invariants" % (j, k)
    return "%d gammas, pairwise distinct invariants" % (pairs + 1)


def _regular_a_element(an: dm.FormAnalysis, rng: random.Random
                       ) -> Tuple[Scalar, ...]:
    """A regular semisimple element of a: all restricted roots nonzero."""
    S = an.structure
    labels = list(an.root_data.root_spaces)
    while True:
        vals = [Scalar.of(rng.randint(-9, 9)) / rng.randint(1, 3)
                for _ in range(S.rank_a)]
        if all(sum((v * l for l, v in zip(lab, vals)), ZERO)
               for lab in labels):
            return (ZERO,) * S.dim_h + tuple(vals) + \
                (ZERO,) * (S.dim_m - S.rank_a)


def _check_fiber_match(an: dm.FormAnalysis, section, seed: int, samples: int
                       ) -> Optional[str]:
    S = an.structure
    if not fiber_match_supported(S):
        return "skipped: charpoly does not separate fibers here"
    basis = section()
    rng = _rng(seed, S.name, "fiber_match")
    for k in range(samples):
        d = _regular_a_element(an, rng)
        gamma = tp.section_fiber_match(S, basis, d)
        pt = tp.section_point(basis, gamma)
        cp_d = la.charpoly(S.matrix_of(d))
        cp_s = la.charpoly(S.matrix_of(pt))
        assert tuple(cp_d) == tuple(cp_s), "sample %d: charpoly mismatch" % k
        assert tp.is_regular(S, pt), "sample %d: matched point not regular" % k
    return "%d targets" % samples


def _check_dims(an: dm.FormAnalysis) -> Optional[str]:
    outs = []
    for g in (2, 3):
        for ctx in (dm.CurveContext.canonical(g),
                    dm.CurveContext.of_degree(g, 2 * g - 1),
                    dm.CurveContext.of_degree(g, 4 * g)):
            rep = dm.dimension_report(an, ctx)
            if an.is_split:
                assert rep.base_dim == rep.expected_moduli_dim, \
                    "split but base != expected at g=%d d_L=%d" % (g, ctx.d_L)
                assert rep.hkr_open, "split but not open at g=%d" % g
            else:
                assert not rep.hkr_open, "not split but open at g=%d" % g
            outs.append(rep.base_dim)
        dm.dimension_report(an, dm.CurveContext.trivial(g))
        dm.dimension_report(an, dm.CurveContext.of_degree(g, 0))
    return "base dims %s" % outs


def _check_openness(an: dm.FormAnalysis) -> Optional[str]:
    br = dm.split_openness_test(an, dm.CurveContext.canonical(2))
    assert br.is_open == an.is_split, "openness != splitness"
    if an.is_split:
        assert br.term_b == 0 and br.term_roots == 0 and br.term_z_h == 0, \
            "split form with nonzero term"
        assert an.num_roots == an.num_reduced, "#roots != #reduced for split"
    return "value %d (roots %d, b %d, z_h %d)" % (
        br.value, br.term_roots, br.term_b, br.term_z_h)


def _check_lemma(an: dm.FormAnalysis) -> Optional[str]:
    n = an.structure.params["n"]
    rep = tp.so_star_lemma_report(n)
    assert rep.ok(), "lemma report failed"
    return "scalar %s" % rep.y_scalar if rep.y_scalar is not None else None


# default counts of the fiber_match targets and the invariance conjugators;
# the CLI's --samples caps both
FIBER_SAMPLES = 25
CONJUGATORS = 20


def _require_counts(samples: int, fiber_samples: int, conjugators: int
                    ) -> None:
    """A sampling check that draws nothing proves nothing: each count is >= 1."""
    for what, count in (("samples", samples), ("fiber_samples", fiber_samples),
                        ("conjugators", conjugators)):
        if count < 1:
            raise InvalidParams("%s must be at least 1, got %d" % (what, count))


def verify_form(fid, seed: int = 0, samples: int = 100,
                fiber_samples: int = FIBER_SAMPLES,
                conjugators: int = CONJUGATORS) -> List[CheckResult]:
    _require_counts(samples, fiber_samples, conjugators)
    name = catalog.form_display(fid)
    try:
        S = catalog.build(fid)
        an = dm.analyze(S)
    except (InvalidParams, SizeBound):
        raise  # a usage error, not a failed construction
    except HkrError as exc:
        return [CheckResult(name, "construction", False,
                            "%s: %s" % (type(exc).__name__, exc))]
    # the section basis is built on first use and shared by the sampling
    # checks; a build that raises is retried, so each of them fails alike
    section = functools.cache(
        lambda: tp.section_basis(S, an.triple, an.decomposition))
    out = [
        _run(name, "roots", lambda: _check_roots(an)),
        _run(name, "tds", lambda: _check_tds(an)),
        _run(name, "normal_triple", lambda: _check_triple(an)),
        _run(name, "split_subalgebra", lambda: _check_split_sub(an)),
        _run(name, "modules", lambda: _check_modules(an)),
        _run(name, "regularity",
             lambda: _check_regularity(an, section, seed, samples)),
        _run(name, "invariance",
             lambda: _check_invariance(an, section, seed, conjugators)),
        _run(name, "injectivity",
             lambda: _check_injectivity(an, section, seed, samples)),
        _run(name, "fiber_match",
             lambda: _check_fiber_match(an, section, seed, fiber_samples)),
        _run(name, "dimensions", lambda: _check_dims(an)),
        _run(name, "openness", lambda: _check_openness(an)),
    ]
    if S.family == "so_star" and S.params["n"] in (3, 5):
        out.append(_run(name, "explicit_matrices", lambda: _check_lemma(an)))
    return out


# --- global checks ----------------------------------------------------------------

_ORACLE_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                  "BC1", "BC2", "BC3", "BC4", "D4", "G2", "F4"]


def _check_exponent_oracle() -> Optional[str]:
    for label in _ORACLE_LABELS:
        simples, pair = rt.abstract_simple_system(label)
        wg = rt.weyl_group(simples, pair)
        want_order = rt.weyl_order_reference(label)
        assert len(wg) == want_order, \
            "%s: |W| = %d, reference %d" % (label, len(wg), want_order)
        rank = len(simples)
        degs = rt.molien_degrees(wg, rank)
        want = rt.invariant_degrees(label)
        assert degs == want, "%s: Molien %s, table %s" % (label, degs, want)
    return "%d types" % len(_ORACLE_LABELS)


def _check_sl2_grid() -> Optional[str]:
    count = 0
    for alpha in (-1, 0, 1, 2):
        for d in range(-3, 4):
            for d_L in (0, 2, 4):
                got = dm.sl2_moduli_classify(alpha, d, d_L)
                empty = 2 * d > abs(d_L) or d < alpha
                if empty:
                    want = "empty"
                elif alpha == d:
                    want = "picard_torsor"
                else:
                    want = "all_semistable"
                assert got == want, \
                    "alpha=%s d=%d d_L=%d: %s != %s" % (alpha, d, d_L,
                                                        got, want)
                count += 1
    return "%d grid points" % count


def _check_component_count() -> Optional[str]:
    assert dm.component_count(1, 2) == 16
    assert dm.component_count(2, 2) == 32
    assert dm.component_count(1, 3) == 64
    return None


def _check_exceptional_table() -> Optional[str]:
    labels = catalog.exceptional_labels()
    for key in labels:
        entry = catalog.lookup_table1(key)
        catalog.algebra_label_dim(entry.split_sub)
    return "%d rows" % len(labels)


def verify_global(seed: int = 0) -> List[CheckResult]:
    return [
        _run("(global)", "exponent_oracle", _check_exponent_oracle),
        _run("(global)", "sl2_grid", _check_sl2_grid),
        _run("(global)", "component_count", _check_component_count),
        _run("(global)", "exceptional_table", _check_exceptional_table),
    ]


def verify_all(seed: int = 0, samples: int = 100,
               fiber_samples: int = FIBER_SAMPLES,
               conjugators: int = CONJUGATORS) -> List[CheckResult]:
    results: List[CheckResult] = []
    fids = sorted(catalog.standard_forms(), key=catalog.form_display)
    for fid in fids:
        results.extend(verify_form(fid, seed, samples, fiber_samples,
                                   conjugators))
    results.extend(verify_global(seed))
    return results

"""Self-verification suites, one CheckResult row per check.

The construction raises a typed error on each identity it asserts, so a row
either reports the stage it reads of the form's one ``dimensions.analyze``
(``tds``, ``normal_triple``, ``split_subalgebra``, ``dimensions``,
``openness``) or adds a route that the construction does not take: a
reference-table row (``roots``, ``modules``, ``explicit_matrices``), seeded
sampling (``regularity``, ``invariance``, ``injectivity``, ``fiber_match``),
or the Molien oracle among the global rows.  A failing stage or a
counterexample fails its row, never the run.  Sampling checks draw from a
PRNG seeded per (seed, form, check), so runs are reproducible in any order.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import catalog
from . import dimensions as dm
from . import linalg as la
from . import roots as rt
from . import triples as tp
from .errors import HkrError, InvalidParams, SizeBound
from .scalars import NotReducible, Scalar, ZERO


class CheckResult:
    """One row of a verify run: the check's outcome on a form, with its
    detail and wall seconds."""

    def __init__(self, form: str, check: str, ok: bool, detail: str = "",
                 seconds: float = 0.0):
        self.form, self.check, self.ok = form, check, ok
        self.detail, self.seconds = detail, seconds

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
    to appear as a coefficient; the Pfaffian invariant of D type does not."""
    return not structure.reference_row().restricted_type.startswith("D")


# --- per-form checks --------------------------------------------------------------

def _check_roots(an: dm.FormAnalysis) -> Optional[str]:
    # the split stage owns the reduced type, and build_tds the simple count
    data = an.root_data  # raises unless the root spaces and c_g(a) fill g
    lam_label = data.types[0]
    want = an.structure.reference_row().restricted_type
    assert rt.type_equivalent(lam_label, want), \
        "restricted type %s, reference %s" % (lam_label, want)
    return "%s (%d roots)" % (lam_label, len(data.root_spaces))


def _check_tds(an: dm.FormAnalysis) -> Optional[str]:
    an.tds  # build_tds raises unless each relation of the TDS holds
    return "rank %d" % an.structure.rank_a


def _check_triple(an: dm.FormAnalysis) -> Optional[str]:
    # normal_triple raises unless [x,e] = e, [x,f] = -f and [e,f] = x hold;
    # sl2 theory then makes e, f nilpotent and x semisimple on C^n
    an.triple


def _check_split_sub(an: dm.FormAnalysis) -> Optional[str]:
    sub = an.split_sub  # raises unless its dim and type are the Table 1 row's
    return "%s (dim %d, %s)" % (sub.table_label, sub.dim,
                                an.root_data.types[1])


def _check_modules(an: dm.FormAnalysis) -> Optional[str]:
    dec = an.decomposition
    trivial = sum(1 for bl in dec.blocks if bl.m == 1)
    counts = "%d trivial modules, dim z = %d" % (trivial, dec.dim_z)
    if an.quasi_split:
        assert trivial == dec.dim_z, "quasi-split but " + counts
    else:
        assert trivial > dec.dim_z, "not quasi-split but " + counts
    want = an.structure.reference_row().quasi_split
    assert an.quasi_split == want, \
        "quasi-split flag %s, reference says %s" % (an.quasi_split, want)
    return "m-degrees %s" % sorted(bl.m for bl in dec.located("m"))


def _check_regularity(an: dm.FormAnalysis, seed: int, samples: int
                      ) -> Optional[str]:
    basis = an.section
    rng = _rng(seed, an.structure.name, "regularity")
    for k in range(samples):
        gamma = _random_gamma(rng, basis.rank)
        assert tp.section_point_regular(basis, gamma), \
            "sample %d not regular: gamma=%s" % (k, gamma)
    return "%d samples" % samples


def _check_invariance(an: dm.FormAnalysis, seed: int, samples: int
                      ) -> Optional[str]:
    S = an.structure
    basis = an.section
    conjs = tp.invariance_conjugators(S, samples)
    rng = _rng(seed, S.name, "invariance")
    for k, (g, ginv) in enumerate(conjs):
        # g ginv = I and det g = 1 make the conjugate a similarity by an
        # element of SL_n, which keeps every characteristic polynomial
        assert la.mat_eq(la.mmul(g, ginv), la.eye(S.n)), \
            "conjugate %d: g g^-1 != I" % k
        assert la.charpoly(g)[0] == (-1) ** S.n, "conjugate %d: det g != 1" % k
        gamma = _random_gamma(rng, basis.rank)
        pt = tp.section_point(basis, gamma)
        moved = tp.conjugate_coords(S, g, ginv, pt)
        assert tuple(S.theta_coords(moved)) == tuple(-v for v in moved), \
            "conjugate %d left m^C" % k
    return "%d conjugators" % len(conjs)


# the point t0 of the charpoly keys: any t0 != 0 keeps the constant term,
# which vanishes on many section points, from deciding alone
_KEY_POINT = 65537


def _charpoly_key(an: dm.FormAnalysis, gamma: List[Scalar]) -> int:
    """det(t0 I - A) mod p for the matrix A of the section point at gamma.
    The reduced coordinates are ints, so ``matrix_of`` stays in Q(i), and
    reducing its entries again gives A mod p."""
    red, point = tp.section_point_mod(an.section, gamma)
    a = an.structure.matrix_of(point)
    return la.rank_det_mod([[(_KEY_POINT if r == c else 0) - red(x)
                             for c, x in enumerate(row)]
                            for r, row in enumerate(a)], red.p)[1]


def _check_injectivity(an: dm.FormAnalysis, seed: int, pairs: int
                       ) -> Optional[str]:
    """pairs + 1 seeded gammas, every pair compared.  Charpolys that differ
    at t0 mod p differ, so only gammas with equal keys (``_charpoly_key``)
    compare their exact charpolys; two distinct gammas with equal
    charpolys fail."""
    S = an.structure
    if not fiber_match_supported(S):
        return "skipped: charpoly does not separate fibers here"
    basis = an.section
    rng = _rng(seed, S.name, "injectivity")
    gammas = [_random_gamma(rng, basis.rank) for _ in range(pairs + 1)]
    exact: Dict[int, tuple] = {}

    def charpoly(k: int) -> tuple:
        if k not in exact:
            pt = tp.section_point(basis, gammas[k])
            exact[k] = tuple(la.charpoly(S.matrix_of(pt)))
        return exact[k]

    try:  # gamma is rational, so every key is mod the prime of f and the e_i
        keys = [_charpoly_key(an, gamma) for gamma in gammas]
    except NotReducible:
        keys = [charpoly(k) for k in range(len(gammas))]
    seen: Dict[object, List[int]] = {}  # key -> the draws with that key
    for k, key in enumerate(keys):
        for j in seen.setdefault(key, []):
            assert gammas[j] == gammas[k] or charpoly(j) != charpoly(k), \
                "gammas %d and %d: distinct gamma, equal invariants" % (j, k)
        seen[key].append(k)
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
            return S.a_vector(vals)


def _check_fiber_match(an: dm.FormAnalysis, seed: int, samples: int
                       ) -> Optional[str]:
    """Each target's matched point is regular without a test: t Ad(t^x)
    fixes f and scales each e_i by t^(m_i), m_i > 0, so the gammas of
    non-regular section points form a closed C*-stable set, which holds
    gamma = 0, i.e. f, once it is non-empty; ``section_basis`` certifies f
    regular (Kostant and Rallis 1971; Slodowy, LNM 815)."""
    S = an.structure
    if not fiber_match_supported(S):
        return "skipped: charpoly does not separate fibers here"
    basis = an.section
    rng = _rng(seed, S.name, "fiber_match")
    for _ in range(samples):
        d = _regular_a_element(an, rng)
        # raises unless d and the matched section point share a charpoly
        tp.section_fiber_match(basis, d)
    return "%d targets" % samples


def _check_dims(an: dm.FormAnalysis) -> Optional[str]:
    """Each d_L > 0 report raises unless a split form has base dim equal to
    the expected moduli dim and openness agrees with splitness."""
    outs = []
    for g in (2, 3):
        for ctx in (dm.CurveContext.canonical(g),
                    dm.CurveContext.of_degree(g, 2 * g - 1),
                    dm.CurveContext.of_degree(g, 4 * g)):
            outs.append(dm.dimension_report(an, ctx).base_dim)
        dm.dimension_report(an, dm.CurveContext.trivial(g))
        dm.dimension_report(an, dm.CurveContext.of_degree(g, 0))
    return "base dims %s" % outs


def _check_openness(an: dm.FormAnalysis) -> Optional[str]:
    # raises at d_L = 2 unless openness = splitness = every term zero
    br = dm.split_openness_test(an, dm.CurveContext.canonical(2))
    return "value %d (roots %d, b %d, z_h %d)" % (
        br.value, br.term_roots, br.term_b, br.term_z_h)


def _check_lemma(an: dm.FormAnalysis) -> Optional[str]:
    rep = tp.so_star_lemma_report(an.triple)
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
    """The per-form checks of fid.  A stage that raises fails just the checks
    that read it; a build that raises is one ``construction`` row."""
    _require_counts(samples, fiber_samples, conjugators)
    name = catalog.form_display(fid)
    try:
        S = catalog.build(fid)
    except (InvalidParams, SizeBound):
        raise  # a usage error, not a failed construction
    except HkrError as exc:
        return [CheckResult(name, "construction", False,
                            "%s: %s" % (type(exc).__name__, exc))]
    an = dm.analyze(S)
    out = [
        _run(name, "roots", lambda: _check_roots(an)),
        _run(name, "tds", lambda: _check_tds(an)),
        _run(name, "normal_triple", lambda: _check_triple(an)),
        _run(name, "split_subalgebra", lambda: _check_split_sub(an)),
        _run(name, "modules", lambda: _check_modules(an)),
        _run(name, "regularity",
             lambda: _check_regularity(an, seed, samples)),
        _run(name, "invariance",
             lambda: _check_invariance(an, seed, conjugators)),
        _run(name, "injectivity",
             lambda: _check_injectivity(an, seed, samples)),
        _run(name, "fiber_match",
             lambda: _check_fiber_match(an, seed, fiber_samples)),
        _run(name, "dimensions", lambda: _check_dims(an)),
        _run(name, "openness", lambda: _check_openness(an)),
    ]
    if S.name in ("so*(6)", "so*(10)"):
        out.append(_run(name, "explicit_matrices", lambda: _check_lemma(an)))
    return out


# --- global checks ----------------------------------------------------------------

_ORACLE_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                  "BC1", "BC2", "BC3", "BC4", "D4", "G2", "F4"]


def _check_exponent_oracle() -> Optional[str]:
    # BC_n shares B_n's simple roots: each system's counts are computed once
    seen: Dict[tuple, Tuple[int, int, List[int], List[int]]] = {}
    for label in _ORACLE_LABELS:
        simples, pair = rt.abstract_simple_system(label)
        key = tuple(simples)
        if key not in seen:
            wg = rt.weyl_group(simples, pair)
            seen[key] = (len(wg), len(wg.roots) // 2, wg.layers,
                         rt.molien_degrees(wg, len(simples)))
        order, positive, layers, degs = seen[key]
        want_order = rt.weyl_order_reference(label)
        assert order == want_order, \
            "%s: |W| = %d, reference %d" % (label, order, want_order)
        want = rt.invariant_degrees(label)
        assert degs == want, "%s: Molien %s, table %s" % (label, degs, want)
        # |W| = prod d_i and |Phi+| = sum (d_i - 1) (Humphreys 3.9)
        assert order == math.prod(degs), \
            "%s: |W| = %d, degrees %s" % (label, order, degs)
        assert positive == sum(d - 1 for d in degs), \
            "%s: %d positive roots, degrees %s" % (label, positive, degs)
        # Solomon: sum_w t^l(w) = prod_i (1 + t + ... + t^(d_i - 1))
        solomon = [1]
        for d in degs:
            solomon = [sum(solomon[max(0, k - d + 1):k + 1])
                       for k in range(len(solomon) + d - 1)]
        assert layers == solomon, \
            "%s: lengths %s, Solomon %s" % (label, layers, solomon)
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

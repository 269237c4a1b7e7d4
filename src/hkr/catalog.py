"""Classical real form constructors and static reference tables.

Each family is the real span of the complex square matrices X fixed by its
defining data: the forms X preserves, the structures it intertwines and the
traces it kills.  One routine turns these equations in X and conj(X) into
sparse real-linear conditions on the entries and solves them; the builder
splits the span into theta eigenspaces and places a hand-picked maximal
abelian a first in the -1 part.  With K = diag(I_p, -I_q),
J = [[0,-I],[I,0]], S = [[0,I],[I,0]] and W antidiagonal with
W[i][2n-1-i] = 1 for i < n and -1 for i >= n:

    sl(n,R)    X = conj(X), tr X = 0
    su(p,q)    X* K + K X = 0, tr X = 0
    sp(2n,R)   X = conj(X), X^T W + W X = 0
    so(p,q)    X = conj(X), X^T K + K X = 0
    su*(2n)    X J = J conj(X), tr X = 0
    sp(p,q)    X^T J + J X = 0, X* K' + K' X = 0, K' = diag(K, K)
    so*(2n)    X^T S + S X = 0, X* K + K X = 0, p = q = n
    sl(n,C)    X = conj(X), X J = J X, tr X = tr J X = 0 (2n x 2n real)

These choices make the canonical a act with rational eigenvalues on the
whole algebra.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import linalg as la
from .algebra import RealFormStructure, theta_entries
from .errors import InvalidParams, NotInTable, SizeBound, ConstructionFailure
from .scalars import Scalar, ZERO, ONE, I, parse_int

_HALF = ONE / 2

FAMILIES = ("sl_R", "su_pq", "sp2n_R", "so_pq", "su_star", "sp_pq",
            "so_star", "sl_C_as_real")

_CLI_PREFIX = {
    "sl_r": "sl_R",
    "su": "su_pq",
    "sp_r": "sp2n_R",
    "so": "so_pq",
    "su_star": "su_star",
    "sp": "sp_pq",
    "so_star": "so_star",
    "sl_c": "sl_C_as_real",
}
_PREFIX_OF = {v: k for k, v in _CLI_PREFIX.items()}

_N_FAMILIES = {"sl_R", "sp2n_R", "su_star", "so_star", "sl_C_as_real"}
_PQ_FAMILIES = {"su_pq", "so_pq", "sp_pq"}

DEFAULT_MAX_SIZE = 12


@dataclass(frozen=True)
class FormId:
    family: str
    params: Tuple[Tuple[str, int], ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParams("unknown family %r" % (self.family,))
        keys = tuple(k for k, _ in self.params)
        want = ("n",) if self.family in _N_FAMILIES else ("p", "q")
        if keys != want:
            raise InvalidParams("family %s needs params %s, got %s"
                                % (self.family, want, keys))
        vals = dict(self.params)
        if self.family == "sl_R" and vals["n"] < 2:
            raise InvalidParams("sl(n,R) needs n >= 2")
        if self.family == "sp2n_R" and vals["n"] < 1:
            raise InvalidParams("sp(2n,R) needs n >= 1")
        if self.family == "su_star" and vals["n"] < 2:
            raise InvalidParams("su*(2n) needs n >= 2")
        if self.family == "so_star" and vals["n"] < 2:
            raise InvalidParams("so*(2n) needs n >= 2")
        if self.family == "sl_C_as_real" and vals["n"] < 2:
            raise InvalidParams("sl(n,C) needs n >= 2")
        if self.family in _PQ_FAMILIES:
            if vals["p"] < 1 or vals["q"] < 1:
                raise InvalidParams("%s needs p, q >= 1" % self.family)
            if self.family == "so_pq" and vals["p"] + vals["q"] < 3:
                raise InvalidParams("so(p,q) needs p + q >= 3")

    @property
    def n(self) -> int:
        return dict(self.params)["n"]

    @property
    def p(self) -> int:
        return dict(self.params)["p"]

    @property
    def q(self) -> int:
        return dict(self.params)["q"]


def form_id(family: str, **kw: int) -> FormId:
    """The FormId of a family and its parameters, each an int (not a bool)."""
    order = ("n",) if family in _N_FAMILIES else ("p", "q")
    if set(kw) != set(order):
        raise InvalidParams("family %s needs params %s, got %s"
                            % (family, order, tuple(sorted(kw))))
    for k in order:
        if type(kw[k]) is not int:
            raise InvalidParams("parameter %s must be an int, got %r"
                                % (k, kw[k]))
    return FormId(family, tuple((k, kw[k]) for k in order))


def parse_form(text: str) -> FormId:
    """Parse CLI form syntax, e.g. ``su:p=1,q=2`` or ``sl_r:n=3``."""
    if ":" not in text:
        raise InvalidParams("form must look like fam:key=value[,...]: %r" % text)
    prefix, rest = text.split(":", 1)
    family = _CLI_PREFIX.get(prefix.strip())
    if family is None:
        raise InvalidParams("unknown family prefix %r (expected one of %s)"
                            % (prefix, sorted(_CLI_PREFIX)))
    kw: Dict[str, int] = {}
    for piece in rest.split(","):
        if "=" not in piece:
            raise InvalidParams("bad parameter %r in %r" % (piece, text))
        k, v = (t.strip() for t in piece.split("=", 1))
        if k in kw:
            raise InvalidParams("repeated parameter %r in %r" % (k, text))
        try:
            kw[k] = parse_int(v)
        except ValueError as exc:
            raise InvalidParams("bad integer %r in %r" % (v, text)) from exc
    return form_id(family, **kw)


def form_cli_text(fid: FormId) -> str:
    return "%s:%s" % (_PREFIX_OF[fid.family],
                      ",".join("%s=%d" % kv for kv in fid.params))


def form_display(fid: FormId) -> str:
    f = fid.family
    if f == "sl_R":
        return "sl(%d,R)" % fid.n
    if f == "su_pq":
        return "su(%d,%d)" % (fid.p, fid.q)
    if f == "sp2n_R":
        return "sp(%d,R)" % (2 * fid.n)
    if f == "so_pq":
        return "so(%d,%d)" % (fid.p, fid.q)
    if f == "su_star":
        return "su*(%d)" % (2 * fid.n)
    if f == "sp_pq":
        return "sp(%d,%d)" % (fid.p, fid.q)
    if f == "so_star":
        return "so*(%d)" % (2 * fid.n)
    return "sl(%d,C)" % fid.n


def matrix_size(fid: FormId) -> int:
    f = fid.family
    if f in ("sl_R",):
        return fid.n
    if f in ("su_pq", "so_pq"):
        return fid.p + fid.q
    if f in ("sp2n_R", "su_star", "so_star", "sl_C_as_real"):
        return 2 * fid.n
    return 2 * (fid.p + fid.q)  # sp_pq


def size_bound() -> int:
    """The matrix-size bound: HKR_MAX_DIM if set (an integer >= 1), else 12."""
    raw = os.environ.get("HKR_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        bound = parse_int(raw)
        if bound >= 1:
            return bound
    except ValueError:
        pass
    raise InvalidParams("HKR_MAX_DIM must be an integer >= 1, got %r" % raw)


# --- reference data (restricted types, split subalgebras, flags) -------------

def reference_restricted_type(fid: FormId) -> str:
    f = fid.family
    if f in ("sl_R", "su_star", "sl_C_as_real"):
        return "A%d" % (fid.n - 1)
    if f == "sp2n_R":
        return "C%d" % fid.n
    if f in ("su_pq", "sp_pq"):
        r = min(fid.p, fid.q)
        return "C%d" % r if fid.p == fid.q else "BC%d" % r
    if f == "so_pq":
        r = min(fid.p, fid.q)
        return "D%d" % r if fid.p == fid.q else "B%d" % r
    # so_star
    if fid.n % 2 == 0:
        return "C%d" % (fid.n // 2)
    return "BC%d" % (fid.n // 2)


def reference_reduced_type(fid: FormId) -> str:
    """Type of the reduced system, the root system of the split subalgebra."""
    t = reference_restricted_type(fid)
    return ("B" + t[2:]) if t.startswith("BC") else t


def reference_split_sub(fid: FormId) -> str:
    f = fid.family
    if f in ("sl_R", "sp2n_R"):
        return form_display(fid)
    if f in ("su_star", "sl_C_as_real"):
        return "sl(%d,R)" % fid.n
    if f in ("su_pq", "sp_pq"):
        r = min(fid.p, fid.q)
        if fid.p == fid.q:
            return "sp(%d,R)" % (2 * r)
        return "so(%d,%d)" % (r, r + 1)
    if f == "so_pq":
        r = min(fid.p, fid.q)
        if fid.p == fid.q:
            return "so(%d,%d)" % (r, r)
        return "so(%d,%d)" % (r, r + 1)
    # so_star
    if fid.n % 2 == 0:
        return "sp(%d,R)" % fid.n
    r = fid.n // 2
    return "so(%d,%d)" % (r, r + 1)


def reference_is_split(fid: FormId) -> bool:
    if fid.family == "so_pq":  # the table writes so(r+1,r) as so(r,r+1)
        return abs(fid.p - fid.q) <= 1
    return reference_split_sub(fid) == form_display(fid)


def reference_quasi_split(fid: FormId) -> bool:
    if reference_is_split(fid):
        return True
    f = fid.family
    if f == "su_pq":
        return abs(fid.p - fid.q) <= 1
    if f == "so_pq":
        return abs(fid.p - fid.q) == 2
    if f == "sl_C_as_real":
        return True
    return False


def algebra_label_dim(label: str) -> int:
    """Dimension of a classical algebra given by its display label."""
    kind = label.split("(")[0]
    inside = label[label.index("(") + 1:label.index(")")]
    parts = inside.split(",")
    if kind == "sl" and parts[-1] == "R":
        n = int(parts[0])
        return n * n - 1
    if kind == "sl" and parts[-1] == "C":
        n = int(parts[0])
        return 2 * (n * n - 1)
    if kind == "sp" and parts[-1] == "R":
        m = int(parts[0])  # matrix size 2n written as sp(2n,R)
        n = m // 2
        return n * (2 * n + 1)
    if kind == "so" and len(parts) == 2 and parts[-1] not in ("R", "C"):
        n = int(parts[0]) + int(parts[1])
        return n * (n - 1) // 2
    if kind == "su" and len(parts) == 2:
        n = int(parts[0]) + int(parts[1])
        return n * n - 1
    exceptional = {"g2": 14, "f4": 52, "e6": 78, "e7": 133, "e8": 248}
    if kind in exceptional:
        return exceptional[kind]
    raise NotInTable("no dimension rule for label %r" % label)


@dataclass(frozen=True)
class TableOneEntry:
    form: str
    split_sub: str
    restricted_type: str
    quasi_split: bool


_EXCEPTIONAL_TABLE1 = {
    "e6(6)": ("e6(6)", "E6", True),
    "e6(2)": ("f4(4)", "F4", True),
    "e6(-14)": ("so(3,2)", "BC2", False),
    "e6(-26)": ("sl(3,R)", "A2", False),
    "e7(7)": ("e7(7)", "E7", True),
    "e7(-5)": ("f4(4)", "F4", False),
    "e7(-25)": ("sp(6,R)", "C3", False),
    "e8(8)": ("e8(8)", "E8", True),
    "e8(-24)": ("f4(4)", "F4", False),
    "f4(4)": ("f4(4)", "F4", True),
    "f4(-20)": ("sl(2,R)", "BC1", False),
    "g2(2)": ("g2(2)", "G2", True),
}


def lookup_table1(form) -> TableOneEntry:
    """Reference row for a FormId or an exceptional label string."""
    if isinstance(form, str):
        key = form.replace(" ", "")
        row = _EXCEPTIONAL_TABLE1.get(key)
        if row is None:
            try:
                form = parse_form(form)
            except InvalidParams:
                raise NotInTable("no table row for %r" % (key,))
        else:
            return TableOneEntry(key, *row)
    return TableOneEntry(form_display(form), reference_split_sub(form),
                         reference_restricted_type(form),
                         reference_quasi_split(form))


def exceptional_labels() -> List[str]:
    return list(_EXCEPTIONAL_TABLE1)


def standard_forms() -> List[FormId]:
    """The catalog entries exercised by the verification suite."""
    out = [form_id("sl_R", n=n) for n in (2, 3, 4)]
    out += [form_id("su_pq", p=p, q=q)
            for p, q in ((1, 2), (1, 3), (2, 3), (2, 2), (3, 3))]
    out += [form_id("sp2n_R", n=n) for n in (1, 2, 3)]
    out += [form_id("so_pq", p=p, q=q) for p, q in ((2, 3), (2, 4), (3, 3))]
    out += [form_id("su_star", n=2)]
    out += [form_id("sp_pq", p=1, q=2)]
    out += [form_id("so_star", n=n) for n in (3, 4)]
    out += [form_id("sl_C_as_real", n=2)]
    return out


# --- defining data: the forms, structures and traces of each family ----------

def _msum(n: int, entries: Sequence[Tuple[int, int, object]]) -> la.Mat:
    m = [[ZERO] * n for _ in range(n)]
    for r, c, v in entries:
        m[r][c] = m[r][c] + Scalar.of(v)
    return tuple(tuple(row) for row in m)


def _diag(signs: Sequence[int]) -> Dict[Tuple[int, int], int]:
    return {(i, i): s for i, s in enumerate(signs)}


def _preserves(form, star: bool):
    """X^T W + W X = 0, or X* W + W X = 0 for a Hermitian W."""
    return [(None, True, star, form), (form, False, False, None)]


def _intertwines(form, conj: bool):
    """X W = W conj(X), or X W = W X."""
    return [(None, False, False, form),
            ({k: -v for k, v in form.items()}, False, conj, None)]


def _declare(fid: FormId, n: int):
    """(equations, trace forms, a-basis matrices, expected dim) of the family."""
    f, h = fid.family, n // 2
    pq = [1] * fid.p + [-1] * fid.q if f in _PQ_FAMILIES else []
    j_form = {**{(i, h + i): -1 for i in range(h)},
              **{(h + i, i): 1 for i in range(h)}}  # [[0,-I],[I,0]]
    real = _intertwines(_diag([1] * n), True)  # X = conj(X)
    traceless = [_diag([1] * n)]  # tr X = 0
    if f == "sl_R":
        a_mats = [_msum(n, [(i, i, 1), (i + 1, i + 1, -1)]) for i in range(n - 1)]
        return [real], traceless, a_mats, n * n - 1
    if f == "su_pq":
        a_mats = [_msum(n, [(i, n - 1 - i, 1), (n - 1 - i, i, 1)])
                  for i in range(min(fid.p, fid.q))]
        return [_preserves(_diag(pq), True)], traceless, a_mats, n * n - 1
    if f == "sp2n_R":
        omega = {(i, n - 1 - i): 1 if i < h else -1 for i in range(n)}
        a_mats = [_msum(n, [(i, i, 1), (n - 1 - i, n - 1 - i, -1)])
                  for i in range(h)]
        return [real, _preserves(omega, False)], [], a_mats, h * (n + 1)
    if f == "so_pq":
        p = fid.p
        a_mats = [_msum(n, [(i, p + i, 1), (p + i, i, 1)])
                  for i in range(min(p, fid.q))]
        return [real, _preserves(_diag(pq), False)], [], a_mats, n * (n - 1) // 2
    if f == "sp_pq":
        a_mats = []
        for i in range(min(fid.p, fid.q)):
            j = h - 1 - i
            a_mats.append(_msum(n, [(i, j, 1), (j, i, 1),
                                    (h + i, h + j, -1), (h + j, h + i, -1)]))
        eqs = [_preserves(j_form, False), _preserves(_diag(pq + pq), True)]
        return eqs, [], a_mats, h * (n + 1)
    if f == "so_star":
        s_form = {(i, (i + h) % n): 1 for i in range(n)}  # [[0,I],[I,0]]
        a_mats = []
        for i in range(h // 2):
            j = h - 1 - i
            a_mats.append(_msum(n, [(i, h + j, 1), (j, h + i, -1),
                                    (h + i, j, -1), (h + j, i, 1)]))
        eqs = [_preserves(s_form, False),
               _preserves(_diag([1] * h + [-1] * h), True)]
        return eqs, [], a_mats, h * (n - 1)
    a_mats = [_msum(n, [(i, i, 1), (h + i, h + i, 1), (i + 1, i + 1, -1),
                        (h + i + 1, h + i + 1, -1)]) for i in range(h - 1)]
    if f == "su_star":
        return [_intertwines(j_form, True)], traceless, a_mats, n * n - 1
    # sl_C_as_real
    eqs = [real, _intertwines(j_form, False)]
    return eqs, traceless + [j_form], a_mats, 2 * (h * h - 1)


def _solve(n: int, equations, traces) -> List[Dict[Tuple[int, int], Scalar]]:
    """The real span of the complex n x n matrices X solving the equations,
    each basis matrix as its sparse {(r, c): entry} dict.

    An equation says that the sum of its terms P op(X) Q vanishes, a term
    being (P, transpose, conj, Q) with op(X) transposed and conjugated as
    flagged and None for an identity P or Q; a trace form P says
    tr(P X) = 0.  Each entry of an equation, and each trace, is a
    functional sum(a X_kl + b conj(X_kl)) with rational a, b, since the
    forms are rational; its real and imaginary parts read a + b on
    Re X_kl and a - b on Im X_kl, real coordinate 2(kn + l) and 2(kn + l) + 1.
    """
    eye = _diag([1] * n)
    funcs: List[Dict[Tuple[int, int], List[int]]] = []
    for terms in equations:
        entries: Dict[Tuple[int, int], Dict[Tuple[int, int], List[int]]] = {}
        for left, transpose, conj, right in terms:
            for (i, k), u in (left or eye).items():
                for (l, j), w in (right or eye).items():
                    var = (l, k) if transpose else (k, l)
                    ab = entries.setdefault((i, j), {}).setdefault(var, [0, 0])
                    ab[conj] += u * w
        funcs.extend(entries.values())
    funcs.extend({(k, i): [u, 0] for (i, k), u in form.items()} for form in traces)
    rows = []
    for func in funcs:
        for part, sign in ((0, 1), (1, -1)):
            row = {2 * (k * n + l) + part: Scalar.of(a + sign * b)
                   for (k, l), (a, b) in func.items() if a + sign * b}
            if row:
                rows.append(row)
    return [{divmod(k, n): a + b * I
             for k, (a, b) in enumerate(zip(vec[::2], vec[1::2])) if a or b}
            for vec in la.kernel_right(rows, 2 * n * n)]


def _theta_halves(x: Dict[Tuple[int, int], Scalar], n: int
                  ) -> Tuple[Dict[int, Scalar], Dict[int, Scalar]]:
    """The parts (x + theta x)/2 in h and (x - theta x)/2 in m of sparse
    entries x, each as a {r n + c: nonzero} dict (``la.flatten``'s layout)."""
    h: Dict[int, Scalar] = {}
    m: Dict[int, Scalar] = {}
    for (r, c), e in x.items():
        h[r * n + c] = m[r * n + c] = e * _HALF
    for (r, c), e in theta_entries(x).items():
        k, e = r * n + c, e * _HALF
        h[k] = h[k] + e if k in h else e
        m[k] = m[k] - e if k in m else -e
    return ({k: e for k, e in h.items() if e},
            {k: e for k, e in m.items() if e})


def build(fid: FormId) -> RealFormStructure:
    """Construct the real form as a validated RealFormStructure."""
    n = matrix_size(fid)
    bound = size_bound()
    if n > bound:
        raise SizeBound("matrix size %d exceeds bound %d (set HKR_MAX_DIM to raise)"
                        % (n, bound))
    equations, traces, a_mats, expect_dim = _declare(fid, n)
    mats = _solve(n, equations, traces)
    if len(mats) != expect_dim:
        raise ConstructionFailure("%s: condition kernel has dim %d, expected %d"
                                  % (form_display(fid), len(mats), expect_dim))
    order_span = la.Subspace()  # a first, then the rest of m
    for i, am in enumerate(a_mats):
        if not order_span.add(la.flatten(am)):
            raise ConstructionFailure("%s: a-basis element %d is dependent"
                                      % (form_display(fid), i))
    h_span, m_span = la.Subspace(), la.Subspace()
    h_mats: List[la.Mat] = []
    m_rest: List[la.Mat] = []
    for x in mats:
        xh, xm = _theta_halves(x, n)
        if xh and h_span.add(xh):
            h_mats.append(_msum(n, [divmod(k, n) + (e,) for k, e in xh.items()]))
        if xm and m_span.add(xm) and order_span.add(xm):
            m_rest.append(_msum(n, [divmod(k, n) + (e,) for k, e in xm.items()]))
    for i, am in enumerate(a_mats):
        if not m_span.contains(la.flatten(am)):
            raise ConstructionFailure("%s: a-basis element %d is not in m"
                                      % (form_display(fid), i))
    dim_h = len(h_mats)
    if dim_h + len(a_mats) + len(m_rest) != expect_dim:
        raise ConstructionFailure("%s: theta split lost dimensions" % form_display(fid))
    basis = tuple(h_mats) + tuple(a_mats) + tuple(m_rest)
    return RealFormStructure(
        name=form_display(fid),
        family=fid.family,
        params=dict(fid.params),
        n=n,
        basis=basis,
        dim_h=dim_h,
        rank_a=len(a_mats),
    )

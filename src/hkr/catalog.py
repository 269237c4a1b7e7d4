"""Classical real form constructors and static reference tables.

Each family is the real span of the complex square matrices X fixed by its
defining data: the forms X preserves, the structures it intertwines and the
traces it kills.  One routine turns these equations in X and conj(X) into
sparse real-linear conditions on the entries and solves them.  The catalog
only declares and solves: ``RealFormStructure`` builds the theta-adapted
basis from the solved span and a hand-picked maximal abelian a, and carries
the form's Table 1 row, the one the analysis chain compares with.  A family
is stated in four places: its CLI prefix, the checks of ``FormId``, one
branch of ``_family_facts`` (matrix size and Table 1 row, display name
included) and one of ``_declare`` (the defining data below).  With
K = diag(I_p, -I_q), J = [[0,-I],[I,0]], S = [[0,I],[I,0]] and W
antidiagonal with W[i][2n-1-i] = 1 for i < n and -1 for i >= n:

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
from typing import Dict, List, Sequence, Tuple

from . import linalg as la
from .algebra import RealFormStructure
from .errors import InvalidParams, NotInTable, SizeBound, ConstructionFailure
from .scalars import Scalar, I, parse_int

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
FAMILIES = tuple(_CLI_PREFIX.values())

# the label and least n of each family with the one parameter n
_LEAST_N = {"sl_R": ("sl(n,R)", 2), "sp2n_R": ("sp(2n,R)", 1),
            "su_star": ("su*(2n)", 2), "so_star": ("so*(2n)", 2),
            "sl_C_as_real": ("sl(n,C)", 2)}
_PQ_FAMILIES = {"su_pq", "so_pq", "sp_pq"}

DEFAULT_MAX_SIZE = 12


class FormId:
    """A family and its ((name, int), ...) parameters, checked on
    construction; immutable by use, equal and hashed by value."""

    def __init__(self, family: str, params: Tuple[Tuple[str, int], ...]):
        self.family, self.params = family, params
        if family not in FAMILIES:
            raise InvalidParams("unknown family %r" % (family,))
        if type(params) is not tuple or any(
                type(kv) is not tuple or len(kv) != 2 for kv in params):
            raise InvalidParams("family %s needs params ((name, value), ...),"
                                " got %r" % (family, params))
        keys = tuple(k for k, _ in params)
        want = ("n",) if family in _LEAST_N else ("p", "q")
        if keys != want:
            raise InvalidParams("family %s needs params %s, got %s"
                                % (family, want, keys))
        for k, v in params:
            if type(v) is not int:
                raise InvalidParams("parameter %s must be an int, got %r"
                                    % (k, v))
        vals = dict(params)
        if family in _LEAST_N:
            label, least = _LEAST_N[family]
            if vals["n"] < least:
                raise InvalidParams("%s needs n >= %d" % (label, least))
        elif vals["p"] < 1 or vals["q"] < 1:
            raise InvalidParams("%s needs p, q >= 1" % family)
        elif family == "so_pq" and vals["p"] + vals["q"] < 3:
            raise InvalidParams("so(p,q) needs p + q >= 3")

    def __eq__(self, other) -> bool:
        if other.__class__ is not FormId:
            return NotImplemented
        return self.family == other.family and self.params == other.params

    def __hash__(self) -> int:
        return hash((self.family, self.params))

    def __repr__(self) -> str:
        return "FormId(%r, %r)" % (self.family, self.params)

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
    return FormId(family, tuple(sorted(kw.items())))


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
    return _family_facts(fid)[1].form


def matrix_size(fid: FormId) -> int:
    return _family_facts(fid)[0]


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


class TableOneEntry:
    """One row of Table 1; immutable by use, equal and hashed by value."""

    def __init__(self, form: str, split_sub: str, restricted_type: str,
                 quasi_split: bool):
        self.form, self.split_sub = form, split_sub
        self.restricted_type, self.quasi_split = restricted_type, quasi_split

    def _key(self) -> Tuple[str, str, str, bool]:
        return (self.form, self.split_sub, self.restricted_type,
                self.quasi_split)

    def __eq__(self, other) -> bool:
        if other.__class__ is not TableOneEntry:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "TableOneEntry%r" % (self._key(),)

    @property
    def reduced_type(self) -> str:
        """Type of the reduced system, that of the split subalgebra."""
        t = self.restricted_type
        return ("B" + t[2:]) if t.startswith("BC") else t

    @property
    def split_dim(self) -> int:
        return algebra_label_dim(self.split_sub)


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
        if row is not None:
            return TableOneEntry(key, *row)
        try:
            form = parse_form(form)
        except InvalidParams:
            raise NotInTable("no table row for %r" % (key,))
    return _family_facts(form)[1]


def _family_facts(fid: FormId) -> Tuple[int, TableOneEntry]:
    """The matrix size of a classical form and its Table 1 row: display
    name, maximal split subalgebra, restricted type and quasi-splitness."""
    f = fid.family
    if f in _PQ_FAMILIES:
        p, q = fid.p, fid.q
        r = min(p, q)
        if f == "so_pq":
            return p + q, TableOneEntry(
                "so(%d,%d)" % (p, q), "so(%d,%d)" % (r, r + (p != q)),
                ("D%d" if p == q else "B%d") % r, abs(p - q) <= 2)
        # su(p,q) and sp(p,q) share their split subalgebra and type
        split, restricted = (("sp(%d,R)" % (2 * r), "C%d" % r) if p == q else
                             ("so(%d,%d)" % (r, r + 1), "BC%d" % r))
        if f == "su_pq":
            return p + q, TableOneEntry("su(%d,%d)" % (p, q), split,
                                        restricted, abs(p - q) <= 1)
        return 2 * (p + q), TableOneEntry("sp(%d,%d)" % (p, q), split,
                                          restricted, False)
    n, h = fid.n, fid.n // 2
    if f == "sl_R":
        form = "sl(%d,R)" % n
        return n, TableOneEntry(form, form, "A%d" % (n - 1), True)
    if f == "sp2n_R":
        form = "sp(%d,R)" % (2 * n)
        return 2 * n, TableOneEntry(form, form, "C%d" % n, True)
    if f == "su_star":
        return 2 * n, TableOneEntry("su*(%d)" % (2 * n), "sl(%d,R)" % n,
                                    "A%d" % (n - 1), False)
    if f == "so_star":
        split, restricted = (("so(%d,%d)" % (h, h + 1), "BC%d" % h) if n % 2
                             else ("sp(%d,R)" % n, "C%d" % h))
        return 2 * n, TableOneEntry("so*(%d)" % (2 * n), split, restricted,
                                    False)
    return 2 * n, TableOneEntry("sl(%d,C)" % n, "sl(%d,R)" % n,
                                "A%d" % (n - 1), True)


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
    """(equations, trace forms, a-basis, expected dim) of the family, each
    a-basis matrix as its sparse {(r, c): entry} dict."""
    f, h = fid.family, n // 2
    pq = [1] * fid.p + [-1] * fid.q if f in _PQ_FAMILIES else []
    j_form = {**{(i, h + i): -1 for i in range(h)},
              **{(h + i, i): 1 for i in range(h)}}  # [[0,-I],[I,0]]
    real = _intertwines(_diag([1] * n), True)  # X = conj(X)
    traceless = [_diag([1] * n)]  # tr X = 0
    if f == "sl_R":
        a_mats = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
        return [real], traceless, a_mats, n * n - 1
    if f == "su_pq":
        a_mats = [{(i, n - 1 - i): 1, (n - 1 - i, i): 1}
                  for i in range(min(fid.p, fid.q))]
        return [_preserves(_diag(pq), True)], traceless, a_mats, n * n - 1
    if f == "sp2n_R":
        omega = {(i, n - 1 - i): 1 if i < h else -1 for i in range(n)}
        a_mats = [{(i, i): 1, (n - 1 - i, n - 1 - i): -1} for i in range(h)]
        return [real, _preserves(omega, False)], [], a_mats, h * (n + 1)
    if f == "so_pq":
        p = fid.p
        a_mats = [{(i, p + i): 1, (p + i, i): 1} for i in range(min(p, fid.q))]
        return [real, _preserves(_diag(pq), False)], [], a_mats, n * (n - 1) // 2
    if f == "sp_pq":
        a_mats = []
        for i in range(min(fid.p, fid.q)):
            j = h - 1 - i
            a_mats.append({(i, j): 1, (j, i): 1,
                           (h + i, h + j): -1, (h + j, h + i): -1})
        eqs = [_preserves(j_form, False), _preserves(_diag(pq + pq), True)]
        return eqs, [], a_mats, h * (n + 1)
    if f == "so_star":
        s_form = {(i, (i + h) % n): 1 for i in range(n)}  # [[0,I],[I,0]]
        a_mats = []
        for i in range(h // 2):
            j = h - 1 - i
            a_mats.append({(i, h + j): 1, (j, h + i): -1,
                           (h + i, j): -1, (h + j, i): 1})
        eqs = [_preserves(s_form, False),
               _preserves(_diag([1] * h + [-1] * h), True)]
        return eqs, [], a_mats, h * (n - 1)
    a_mats = [{(i, i): 1, (h + i, h + i): 1, (i + 1, i + 1): -1,
               (h + i + 1, h + i + 1): -1} for i in range(h - 1)]
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


def build(fid: FormId) -> RealFormStructure:
    """Construct the real form as a validated RealFormStructure."""
    n, row = _family_facts(fid)
    bound = size_bound()
    if n > bound:
        raise SizeBound("matrix size %d exceeds bound %d (set HKR_MAX_DIM to raise)"
                        % (n, bound))
    equations, traces, a_mats, expect_dim = _declare(fid, n)
    span = _solve(n, equations, traces)
    if len(span) != expect_dim:
        raise ConstructionFailure("%s: condition kernel has dim %d, expected %d"
                                  % (row.form, len(span), expect_dim))
    return RealFormStructure(row.form, n, span, a_mats, row)

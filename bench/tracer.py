"""Span and counter wrappers installed on the public functions of ``hkr``.

The wrappers live here, in the benchmark, and are installed only in a traced
pass; an untraced pass never installs them.  Importing this module does not
import ``hkr``.  Each wrapped call records a span (id, parent id, name,
start, end) kept in memory until the pass ends.  ``Scalar`` operators get
plain call counters instead of spans, because they run millions of times
per pass.
"""

import importlib
from time import perf_counter

# (module, owner class or None, attribute) per traced function; the span name
# is "<module>.<attribute>".
SPANNED = [
    ("linalg", None, ["rref", "kernel_right", "solve_right", "rational_roots",
                      "charpoly", "charpoly_frac"]),
    ("algebra", "RealFormStructure", ["ad_matrix", "ad_frac", "bracket_coords",
                                      "matrix_of", "coords_of",
                                      "centralizer_frac",
                                      "generate_subalgebra"]),
    ("catalog", None, ["build"]),
    ("roots", None, ["restricted_roots", "full_root_classification",
                     "weyl_group", "molien_degrees"]),
    ("triples", None, ["build_tds", "normal_triple",
                       "maximal_split_subalgebra", "module_decomposition",
                       "is_quasi_split", "section_basis",
                       "section_point_regular", "section_fiber_match",
                       "is_regular", "invariance_conjugators",
                       "conjugate_coords", "section_point"]),
    ("dimensions", None, ["analyze", "dimension_report"]),
    ("verify", None, ["verify_form", "verify_global"]),
]

# Scalar dunder methods counted per operation.  Subtraction is addition of a
# negation inside the library, so counting __add__/__radd__ covers it; a
# division also counts the inv and mul it performs.
SCALAR_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add",
    "__truediv__": "div", "__rtruediv__": "div",
    "inv": "inv",
}

# Matrix-order buckets for the linalg entry points: the ad-matrix sizes the
# catalog reaches (dim 15, 35, 63) and anything larger, such as the linear
# systems catalog.build solves for its basis.
ORDER_BUCKETS = [(1, 15), (16, 35), (36, 63), (64, None)]


def bucket_name(order):
    for lo, hi in ORDER_BUCKETS:
        if hi is None or order <= hi:
            return "o%d_%s" % (lo, "up" if hi is None else hi)


def _order_of_rows(rows, *_):
    if not rows:
        return 0
    return max(len(rows), len(rows[0]))


def _order_of_poly(poly):
    return len(poly) - 1


ORDER_OF = {
    "linalg.rref": _order_of_rows,
    "linalg.kernel_right": _order_of_rows,
    "linalg.solve_right": _order_of_rows,
    "linalg.charpoly": _order_of_rows,
    "linalg.charpoly_frac": _order_of_rows,
    "linalg.rational_roots": _order_of_poly,
}


class Tracer:
    """Collects spans and counters for one pass.

    ``defining_n`` is the defining matrix size of the form whose op is
    running (None outside a form), so charpoly calls larger than n x n can
    be counted.
    """

    def __init__(self):
        self.spans = []
        self.scalar_calls = {op: 0 for op in set(SCALAR_OPS.values())}
        self.order_calls = {}
        self.max_order = {}
        self.charpoly_frac_over_n = 0
        self.defining_n = None
        self._stack = [0]
        self._next_id = 1
        self._active = {}
        self._restore = []

    # --- installation ----------------------------------------------------

    def install(self):
        """Wrap every traced function; ``uninstall`` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name, owner, attrs in SPANNED:
            mod = importlib.import_module("hkr." + mod_name)
            target = getattr(mod, owner) if owner else mod
            for attr in attrs:
                name = "%s.%s" % (mod_name, attr)
                self._patch(target, attr, self._span_wrapper(
                    name, getattr(target, attr), ORDER_OF.get(name)))
        Scalar = importlib.import_module("hkr.scalars").Scalar
        for attr, op in SCALAR_OPS.items():
            self._patch(Scalar, attr,
                        self._count_wrapper(op, getattr(Scalar, attr)))
        return self

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, wrapper):
        self._restore.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrapper)

    def _count_wrapper(self, op, fn):
        calls = self.scalar_calls

        def counted(*args):
            calls[op] += 1
            return fn(*args)
        return counted

    def _span_wrapper(self, name, fn, order_of):
        spans, stack, active = self.spans, self._stack, self._active
        active[name] = 0

        def spanned(*args, **kwargs):
            if order_of is not None:
                self._count_order(name, order_of(*args))
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            outermost = active[name] == 0
            active[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                spans.append((sid, parent, name, t0, t1, outermost))
        return spanned

    def _count_order(self, name, order):
        key = (name, bucket_name(max(order, 1)))
        self.order_calls[key] = self.order_calls.get(key, 0) + 1
        if order > self.max_order.get(name, 0):
            self.max_order[name] = order
        if (name == "linalg.charpoly_frac" and self.defining_n is not None
                and order > self.defining_n):
            self.charpoly_frac_over_n += 1

    # --- results -----------------------------------------------------------

    def layer_metrics(self):
        """Per-function calls, inclusive seconds and self seconds, plus the
        order buckets and Scalar counts, keyed by metric name.

        Inclusive time counts only the outermost span of a name, so a
        function reached again below itself is not counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        child_time = {}
        for sid, parent, _name, t0, t1, _outer in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out = {}
        for _mod, _owner, attrs in SPANNED:
            for attr in attrs:
                name = "%s.%s" % (_mod, attr)
                out[name + ".calls"] = 0
                out[name + ".s"] = 0.0
                out[name + ".self_s"] = 0.0
        for sid, _parent, name, t0, t1, outer in self.spans:
            dur = t1 - t0
            out[name + ".calls"] += 1
            if outer:
                out[name + ".s"] += dur
            out[name + ".self_s"] += dur - child_time.get(sid, 0.0)
        for name in ORDER_OF:
            for lo, hi in ORDER_BUCKETS:
                bucket = bucket_name(lo)
                out["%s.%s.calls" % (name, bucket)] = \
                    self.order_calls.get((name, bucket), 0)
            out[name + ".max_order"] = self.max_order.get(name, 0)
        out["linalg.charpoly_frac.calls_over_n"] = self.charpoly_frac_over_n
        for op, count in self.scalar_calls.items():
            out["scalars.%s.calls" % op] = count
        return out

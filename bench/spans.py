"""Spans around the public functions of the cfinite modules, kept in memory.

The benchmark measures layers from outside the library: `install` replaces
every binding of a wrapped function with one wrapper that records a span.
A function is bound at its defining module, at each `from ... import`
re-binding (`certify.catalan_closed`, the package re-exports), at class
aliases (`__rmul__ = __mul__`) and in module-level dispatch tables
(`certify._VALIDATORS`); all of them are rebound, and `install` fails if a
binding of an original is left behind.  Nothing under src/ changes.

A span is (id, name id, start ns, end ns, parent id, op id).  Self time is
a span's duration minus the durations of its direct children, so the self
times of one op's spans add up to the op's wall time exactly.
"""

import gzip
import importlib
import itertools
import json
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("seqcore", "linalg", "recurrence", "powersum", "gfseries", "certify", "cli")
BUCKETS = (8, 16, 24, 32, 48, 64)

OP_NAME = "outside.op"  # root span of an op; its self time is time in no wrapped function
SIZER_NAME = "trace.sizer"  # time the tracer spends on size counters

# The public functions of each module, and the methods doing real work on its
# classes ("Class.method").  The cli handlers are private but are the command
# layer that `main` dispatches to.
TARGETS = {
    "seqcore": (
        "catalan_ballot", "catalan_convolution", "catalan_closed", "catalan_holonomic",
        "catalan_is_odd", "catalan_is_odd_by_reduction", "fibonacci",
    ),
    "linalg": ("rref", "kernel_basis", "solve", "determinant", "independent_row_indices"),
    "recurrence": (
        "iterate_recurrence", "verify", "kernel_nontrivial", "guess_recurrence",
        "hankel_nonsingular_witness", "normalize_coprime", "descend_field",
    ),
    "powersum": (
        "Polynomial.__call__", "Polynomial.__add__", "Polynomial.__sub__",
        "Polynomial.__mul__", "Polynomial.__pow__", "Polynomial.__divmod__",
        "poly_gcd", "characteristic_polynomial", "polynomial_roots", "evaluate_powersum",
        "binet_form", "dominant_part", "vandermonde_modulus", "tail_lower_bound_check",
        "falling_factorial", "catalan_asymptotic_constant",
    ),
    "gfseries": (
        "TruncatedSeries.__add__", "TruncatedSeries.__mul__", "RationalFunction.__post_init__",
        "sqrt_one_minus_4x", "catalan_gf", "rational_gf", "expand_rational",
        "pade_reconstruct", "degree_parity_check",
    ),
    "certify": (
        "refute_by_parity", "validate_parity", "summand_polynomial",
        "polynomial_certificate_value", "candidate_residual", "refute_by_polynomial",
        "validate_polynomial", "refute_by_hankel", "validate_hankel", "refute_by_gf",
        "validate_gf", "validate_certificate", "refute_all", "certificate_to_fields",
        "certificate_from_fields", "bundle_to_document", "serialize_bundle",
        "document_to_bundle", "parse_bundle", "validate_document", "validate_serialized",
    ),
    "cli": (
        "main", "build_parser", "parse_bfile", "parse_rational_list", "_cmd_catalan",
        "_cmd_guess", "_cmd_refute", "_cmd_binet", "_cmd_gf", "_cmd_validate",
    ),
}


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return 0


# Size counters, computed after the call, outside the function's span.
def _size_determinant(rec, args, kwargs, result):
    matrix = args[0]
    rec.maxima["linalg.determinant.max_dim"] = max(
        rec.maxima["linalg.determinant.max_dim"], len(matrix)
    )
    bits = max((_bits(x) for row in matrix for x in row), default=0)
    rec.maxima["linalg.determinant.max_entry_bits"] = max(
        rec.maxima["linalg.determinant.max_entry_bits"], bits
    )


def _size_rref(rec, args, kwargs, result):
    rec.maxima["linalg.rref.max_rows"] = max(rec.maxima["linalg.rref.max_rows"], len(args[0]))


def _size_poly_mul(rec, args, kwargs, result):
    this, other = args
    rec.counts["powersum.Polynomial.__mul__.coef_products"] += len(this.coeffs) * len(
        getattr(other, "coeffs", (other,))
    )


def _size_expand(rec, args, kwargs, result):
    terms = (kwargs["order"] if "order" in kwargs else args[1]) + 1
    rec.counts["gfseries.expand_rational.terms"] += terms
    if rec.stack[-1][1] == rec.name_id("certify.refute_by_gf"):
        rec.counts["certify.refute_by_gf.depth"] += terms


def _size_refute_gf(rec, args, kwargs, result):
    rec.counts["certify.refute_by_gf.mismatch_terms"] += result.mismatch_index + 1


def _size_catalan_closed(rec, args, kwargs, result):
    rec.indices.add((rec.op_id, args[0] if args else kwargs["n"]))


COUNTS = (
    "powersum.Polynomial.__mul__.coef_products",
    "gfseries.expand_rational.terms",
    "certify.refute_by_gf.depth",
    "certify.refute_by_gf.mismatch_terms",
)
MAXIMA = ("linalg.determinant.max_dim", "linalg.determinant.max_entry_bits", "linalg.rref.max_rows")

SIZERS = {
    "linalg.determinant": _size_determinant,
    "linalg.rref": _size_rref,
    "powersum.Polynomial.__mul__": _size_poly_mul,
    "gfseries.expand_rational": _size_expand,
    "certify.refute_by_gf": _size_refute_gf,
    "seqcore.catalan_closed": _size_catalan_closed,
}


class Recorder:
    """Spans and size counters of one process, in memory until `dump`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = [(-1, -1)]  # (span id, name id) of the open spans
        self.next_span = itertools.count().__next__
        self.op_id = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.indices = set()  # (op id, n) for each catalan_closed(n)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        sizer = SIZERS.get(name)
        sizer_id = self.name_id(SIZER_NAME)
        spans, stack, next_span, clock = self.spans, self.stack, self.next_span, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_id = next_span()
            parent = stack[-1][0]
            stack.append((span_id, name_id))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent, self.op_id))
            if sizer is not None:
                sizer_span = next_span()
                sizer_start = clock()
                sizer(self, args, kwargs, result)
                spans.append((sizer_span, sizer_id, sizer_start, clock(), parent, self.op_id))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def op(self, op_id: int, call):
        """Run call(root span id) as op `op_id` under a root span."""
        self.op_id = op_id
        span_id = self.next_span()
        self.stack.append((span_id, self.name_id(OP_NAME)))
        start = time.perf_counter_ns()
        try:
            return call(span_id)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((span_id, self.name_id(OP_NAME), start, end, -1, op_id))
            self.op_id = -1

    def merge(self, other: dict, parent: int):
        """Add a child process's dumped spans below span `parent` of the current op."""
        remap = [self.name_id(n) for n in other["names"]]
        ids = {}
        for span_id, *_ in other["spans"]:
            ids[span_id] = self.next_span()
        for span_id, name_id, start, end, up, _ in other["spans"]:
            self.spans.append(
                (ids[span_id], remap[name_id], start, end, ids.get(up, parent), self.op_id)
            )
        for key, value in other["counts"].items():
            self.counts[key] += value
        for key, value in other["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        self.indices.update((self.op_id, n) for n in other["indices"])

    def dump(self, path, extra=None):
        """Write every span, with column names, and the counters as gzipped JSON."""
        doc = {
            "columns": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "indices": sorted({n for _, n in self.indices}),
            **(extra or {}),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def cfinite_modules() -> dict:
    """The package and its seven modules, keyed by layer name (package: '')."""
    modules = {"": importlib.import_module("cfinite")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"cfinite.{layer}")
    return modules


class Installed:
    """The rebindings made by `install`, undone by `undo`."""

    def __init__(self):
        self.undo_log = []
        self.missing = []

    def undo(self):
        for setter, key, original in reversed(self.undo_log):
            setter(key, original)
        self.undo_log.clear()


def _namespaces(modules):
    """(items, setter) for every place a function can be bound: module
    globals, class dicts and module-level dicts of the cfinite modules."""
    seen = set()
    for module in modules.values():
        yield list(vars(module).items()), lambda k, v, m=module: setattr(m, k, v)
        for value in list(vars(module).values()):
            if id(value) in seen:
                continue
            if isinstance(value, type) and value.__module__ == module.__name__:
                seen.add(id(value))
                yield list(vars(value).items()), lambda k, v, c=value: setattr(c, k, v)
            elif isinstance(value, dict):
                seen.add(id(value))
                yield list(value.items()), value.__setitem__


def install(rec: Recorder, modules: dict) -> Installed:
    """Wrap every TARGETS function at every binding; raise if one is left."""
    done = Installed()
    originals = {}
    for layer, targets in TARGETS.items():
        for dotted in targets:
            owner = modules[layer]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
                done.missing.append(f"{layer}.{dotted}")
                rec.name_id(f"{layer}.{dotted}")  # reported with zero calls
                continue
            originals[id(fn)] = (fn, rec.wrap(f"{layer}.{dotted}", fn))
    for items, setter in _namespaces(modules):
        for key, value in items:
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setter(key, hit[1])
                done.undo_log.append((setter, key, value))
    left = [
        key
        for items, _ in _namespaces(modules)
        for key, value in items
        if id(value) in originals and originals[id(value)][0] is value
    ]
    if left:
        done.undo()
        raise RuntimeError(f"bindings left unwrapped: {left}")
    return done


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def bucket_of(order) -> int | None:
    """The smallest order bucket >= order (None outside the buckets)."""
    if order is None:
        return None
    return next((b for b in BUCKETS if order <= b), None)


def aggregate(rec: Recorder, ops: dict, cycles: int) -> tuple:
    """Per-layer metrics per cycle of the mix, and the ops whose self times
    do not add up to their wall time (empty when the bookkeeping holds).

    `ops` maps an op id to (order bucket, speed factor); each span's seconds
    are scaled by its op's factor, as the op's latency is."""
    names = rec.names
    child_ns = defaultdict(int)
    name_of_span = {}
    for span_id, name_id, start, end, parent, _ in rec.spans:
        child_ns[parent] += end - start
        name_of_span[span_id] = name_id
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    bucket_self = defaultdict(float)
    op_self_ns = defaultdict(int)
    op_wall = {}
    rref_in_guess = 0
    op_name = rec.name_id(OP_NAME)
    rref_id, guess_id = rec.name_id("linalg.rref"), rec.name_id("recurrence.guess_recurrence")
    for span_id, name_id, start, end, parent, op in rec.spans:
        own_ns = end - start - child_ns[span_id]
        bucket, factor = ops.get(op, (None, 1.0))
        own = own_ns * 1e-9 * factor
        name = names[name_id]
        calls[name] += 1
        total[name] += (end - start) * 1e-9 * factor
        self_s[name] += own
        layer_self[layer_of(name)] += own
        bucket_self[(layer_of(name), bucket)] += own
        op_self_ns[op] += own_ns
        if name_id == op_name:
            op_wall[op] = end - start
        if name_id == rref_id and name_of_span.get(parent) == guess_id:
            rref_in_guess += 1
    unbalanced = [op for op, wall in op_wall.items() if op_self_ns[op] != wall]
    unbalanced += [op for op in op_self_ns if op not in op_wall]

    per = 1.0 / cycles
    m = {}
    for layer in LAYERS + ("outside", "trace"):
        m[f"{layer}.self_s"] = layer_self[layer] * per
    for layer in LAYERS:
        for b in BUCKETS:
            m[f"{layer}.self_s.k{b}"] = bucket_self[(layer, b)] * per
    for name in names:
        m[f"{name}.calls"] = calls[name] * per
        m[f"{name}.total_s"] = total[name] * per
        m[f"{name}.self_s"] = self_s[name] * per
    for key in COUNTS:
        m[key] = rec.counts[key] * per
    for key in MAXIMA:
        m[key] = rec.maxima[key]
    m["seqcore.catalan_closed.calls_per_index"] = _ratio(
        calls["seqcore.catalan_closed"], len(rec.indices)
    )
    m["recurrence.guess_recurrence.orders_tried_per_call"] = _ratio(
        rref_in_guess, calls["recurrence.guess_recurrence"]
    )
    m["certify.refute_by_gf.depth_per_mismatch"] = _ratio(
        rec.counts["certify.refute_by_gf.depth"],
        rec.counts["certify.refute_by_gf.mismatch_terms"],
    )
    m["trace.spans_per_cycle"] = len(rec.spans) * per
    return m, unbalanced


def _ratio(a, b) -> float:
    return a / b if b else 0.0

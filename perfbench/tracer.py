"""Runtime tracing of qgap from outside: spans per layer, counts for scalars.

``Tracer.install`` replaces, for the time of a traced run, the methods of
``Matrix``, ``Subspace`` and ``Projector`` and every public function that a
qgap module defines, in every qgap module namespace that holds it, with a
wrapper that records a span (name, start, end, parent, op id). Spans stay in
memory. The arithmetic methods of ``GaussianRational`` are only counted: a
span would cost more than the multiply it measures. ``uninstall`` puts the
originals back.

A span is named ``<module>.<qualname>`` with the ``qgap.`` prefix dropped,
e.g. ``linalg.Matrix.rref``; its layer is the module that defines the code.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter

# Scalar methods counted under one name each: add covers add, radd and sub.
SCALAR_COUNTS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__truediv__": "div", "__rtruediv__": "div",
}
SPANNED_CLASSES = ("Matrix", "Subspace", "Projector")
SPANNED_DUNDERS = ("__matmul__", "__add__", "__sub__", "__le__", "__post_init__")
# Accessors and the shape check run inside every other method; a span on
# them would cost more than the call.
UNSPANNED = {"Matrix.at", "Matrix.row", "Matrix.col", "Matrix.row_lists", "Matrix.__post_init__"}
# Called thousands of times per classical enumeration, so counted instead.
COUNTED_FUNCTIONS = {"propositions.classical_valuate"}
SAMPLE_EVERY = 53
SAMPLE_MAX = 256

# metric prefix -> span names summed into it
SPAN_GROUPS = {
    "linalg.rref": ("linalg.Matrix.rref",),
    "linalg.matmul": ("linalg.Matrix.__matmul__",),
    "linalg.kernel": ("linalg.Matrix.kernel_basis",),
    "linalg.inverse": ("linalg.Matrix.inverse",),
    "lattice.meet": ("lattice.Subspace.meet",),
    "lattice.orthocomplement": ("lattice.Subspace.orthocomplement",),
    "lattice.span": ("lattice.Subspace.from_vectors", "lattice.Subspace.sum", "lattice.Subspace.join"),
    "lattice.contains": ("lattice.Subspace.contains",),
    "projectors.onto": ("projectors.projector_onto",),
    "projectors.validate": ("projectors.Projector.__post_init__",),
    "projectors.meet": ("projectors.projector_meet",),
    "projectors.join": ("projectors.projector_join",),
    "propositions.parse": ("propositions.parse_proposition", "propositions.parse_atom"),
    "propositions.compile": ("propositions.compile_proposition",),
    "propositions.valuate": ("propositions.valuate",),
    "propositions.classical": ("propositions.classical_solutions",),
    "scenario.run_epr": ("scenario.run_epr",),
    "scenario.standard_context": ("scenario.standard_context",),
}


def _layer(module_name: str) -> str:
    return module_name[len("qgap."):] if module_name.startswith("qgap.") else module_name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = {"mul": [], "add": []}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.originals: dict[str, object] = {}

    # -------------------------------------------------------------- wrappers

    def _span(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _count(self, key, fn, sample=None):
        counts = self.counts
        if sample is None:
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        def sampled(a, b):
            n = counts[key] = counts[key] + 1
            if n % SAMPLE_EVERY == 0 and len(sample) < SAMPLE_MAX:
                sample.append((a, b))
            return fn(a, b)

        return sampled

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # --------------------------------------------------------------- install

    def install(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qgap" or n.startswith("qgap."))
        ]
        from qgap import GaussianRational

        for attr, key in SCALAR_COUNTS.items():
            fn = GaussianRational.__dict__[attr]
            self.originals[f"scalars.{attr}"] = fn
            sample = self.samples.get(key) if attr in ("__mul__", "__add__") else None
            self._set(GaussianRational, attr, self._count(f"scalars.{key}", fn, sample))

        for cls in {getattr(m, c) for m in modules for c in SPANNED_CLASSES if hasattr(m, c)}:
            layer = _layer(cls.__module__)
            for attr, raw in list(cls.__dict__.items()):
                qual = f"{cls.__name__}.{attr}"
                if qual in UNSPANNED or isinstance(raw, property):
                    continue
                if attr.startswith("_") and attr not in SPANNED_DUNDERS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._span(f"{layer}.{qual}", raw.__func__))
                elif isinstance(raw, types.FunctionType):
                    wrapped = self._span(f"{layer}.{qual}", raw)
                else:
                    continue
                self._set(cls, attr, wrapped)

        replacements: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or isinstance(value, type) or not callable(value):
                    continue
                home = getattr(value, "__module__", None) or ""
                if not home.startswith("qgap.") or home == "qgap.scalars":
                    continue
                if id(value) not in replacements:
                    name = f"{_layer(home)}.{getattr(value, '__qualname__', attr)}"
                    self.originals[name] = value
                    if name in COUNTED_FUNCTIONS:
                        replacements[id(value)] = self._count(name, value)
                    else:
                        replacements[id(value)] = self._span(name, value)
                self._set(module, attr, replacements[id(value)])

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ------------------------------------------------------------- span analysis


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, cursor = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - _covered(children[i], span[1], span[2])
        for i, span in enumerate(spans)
    ]


def layer_totals(spans, counts) -> dict:
    """Per-layer call counts and self seconds summed over all traced ops.

    ``propositions.compile`` counts outermost calls only: a compile span
    under another compile span is part of the same compilation.
    """
    selfs = self_times(spans)
    by_name_calls: Counter = Counter()
    by_name_self: Counter = Counter()
    for span, own in zip(spans, selfs):
        by_name_calls[span[0]] += 1
        by_name_self[span[0]] += own
    totals = {}
    for group, names in SPAN_GROUPS.items():
        totals[f"{group}_calls"] = sum(by_name_calls[n] for n in names)
        totals[f"{group}_self_ms"] = 1000 * sum(by_name_self[n] for n in names)
    compile_name = SPAN_GROUPS["propositions.compile"][0]
    totals["propositions.compile_calls"] = sum(
        1 for span in spans
        if span[0] == compile_name and (span[3] < 0 or spans[span[3]][0] != compile_name)
    )
    for key in ("mul", "add", "div"):
        totals[f"scalars.{key}_calls"] = counts.get(f"scalars.{key}", 0)
    totals["propositions.classical_valuate_calls"] = counts.get("propositions.classical_valuate", 0)
    return totals


def time_scalar_op(fn, pairs, repeats=9) -> float:
    """Median nanoseconds per call of ``fn`` over the sampled operand pairs."""
    if not pairs:
        return 0.0
    per_call = []
    for _ in range(repeats):
        t0 = perf_counter()
        for a, b in pairs:
            fn(a, b)
        per_call.append((perf_counter() - t0) / len(pairs))
    per_call.sort()
    return 1e9 * per_call[len(per_call) // 2]


def scalar_timings(tracer: Tracer) -> dict:
    return {
        "scalars.mul_ns": time_scalar_op(tracer.originals["scalars.__mul__"], tracer.samples["mul"]),
        "scalars.add_ns": time_scalar_op(tracer.originals["scalars.__add__"], tracer.samples["add"]),
    }

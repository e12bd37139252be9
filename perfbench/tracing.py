"""Spans around the library's public functions, recorded from outside ``src/``.

Modules import names directly (``from .convex import minkowski_gauge``), so
a function is replaced at every binding site: each loaded ``bicomplex``
module whose namespace holds the original object gets the wrapper.  Methods
are replaced on their class.  ``uninstall`` restores every original.

A span is ``[name, start, end, parent, request]`` with ``parent`` the index
of the enclosing span (or -1).  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = (
    ("lp", "LinearProgram.solve"),
    ("polytope", "facet_enumeration"),
    ("polytope", "extreme_points"),
    ("polytope", "vertex_enumeration"),
    ("polytope", "RealPolytope.origin_interior"),
    ("convex", "minkowski_gauge"),
    ("convex", "minkowski_diff_translate"),
    ("analysis", "separate_hyperbolic"),
    ("analysis", "extend_dominated"),
    ("serialize", "decode_dconvex"),
    ("serialize", "encode_certificate"),
    ("linear", "operator_dnorm"),
    ("suites", "run_suite"),
)


def _bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, (int, Fraction)):
            v = Fraction(v)
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.request = -1
        # per-call attributes recorded at the same boundaries as the spans
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        if name == "lp.solve":
            values = list(result.x or ()) + ([result.value] if result.value is not None else [])
            self.samples["lp.result.bits"].append(_bits(values))
        elif name == "polytope.facet_enumeration":
            self.samples["polytope.facet_enumeration.vertices_in"].append(len(args[0]))
        elif name == "convex.minkowski_diff_translate":
            for P in (result.p1, result.p2):
                self.samples["convex.diff_body_vertices"].append(len(P.vertices()))
        elif name == "analysis.separate_hyperbolic":
            self.samples["analysis.certificates"].append(1)

    def _wrap(self, fn, name: str):
        tracer = self
        by_suite = name == "suites.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer.current
            span = [f"{name}.{args[0]}" if by_suite else name, 0.0, 0.0, parent, tracer.request]
            tracer.current = len(spans)
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.current = parent
            tracer._observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "bicomplex" or key.startswith("bicomplex."))]
        for mod_name, attr in TARGETS:
            module = sys.modules[f"bicomplex.{mod_name}"]
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(vars(cls)[meth], name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, obj, attr: str, value) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self = duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += (end - start) - child[i]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path, workload: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps({
                    "workload": workload, "id": i, "name": name, "start": start,
                    "end": end, "parent": parent, "request": request,
                }) + "\n")

"""The benchmark's tracer still finds, wraps and restores every target.

`perfbench/tracing.py` replaces each function in ``TARGETS`` at every binding
site and each method on its class (read from the class body), and its
per-layer metrics read the spans those wrappers record.  A refactor that
moves a target, or stops routing separation through the public
`extend_dominated` or the gauge query through `minkowski_gauge`, would break
``--trace 1`` or zero a metric without failing any other test.  Separation
decides overlap from the extension's optimum (read from edge normals on the
line and in the plane, from its LP in 3-D and up), so a disjoint pair
records no `minkowski_gauge` span (a missing span reads as 0 in the
per-layer rows).
The tracer is imported from its path; nothing under ``perfbench/`` is
changed.
"""

import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from random import Random

from bicomplex import generators as gen
from bicomplex.cli import cmd_gauge, cmd_separate
from bicomplex.serialize import encode_dconvex, encode_dvector

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(mod_name: str, attr: str):
    """The object a target names: a module attribute, or a method in its class body."""
    module = importlib.import_module(f"bicomplex.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def _bindings():
    """Every function object bound in a loaded bicomplex module or class body."""
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "bicomplex" or key.startswith("bicomplex.")):
            continue
        for value in list(vars(module).values()):
            yield value
            if isinstance(value, type):
                yield from vars(value).values()


def test_targets_are_wrapped_recorded_and_restored(tmp_path):
    tracing = _load_tracing()
    originals = {target: _bound(*target) for target in tracing.TARGETS}
    rng = Random("trace-targets")
    A, B = gen.rand_separation_instance(rng, 2)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"A": encode_dconvex(A), "B": encode_dconvex(B)}))
    body = tmp_path / "set.json"
    body.write_text(json.dumps(encode_dconvex(gen.rand_absorbing_pair(rng, 2))))
    point = tmp_path / "point.json"
    point.write_text(json.dumps(encode_dvector(gen.rand_dvector(rng, 2))))

    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrappers = {target: _bound(*target) for target in tracing.TARGETS}
        assert cmd_separate(str(pair), out=io.StringIO()) == 0
        separate_spans = len(tracer.spans)
        assert cmd_gauge(str(body), str(point), out=io.StringIO()) == 0
    finally:
        tracer.uninstall()

    for target, wrapper in wrappers.items():
        assert getattr(wrapper, "__wrapped__", None) is originals[target], target
    separate = {span[0] for span in tracer.spans[:separate_spans]}
    assert {"analysis.separate_hyperbolic", "analysis.extend_dominated"} <= separate
    assert "convex.minkowski_gauge" not in separate
    assert "convex.minkowski_gauge" in {span[0] for span in tracer.spans[separate_spans:]}
    for target, original in originals.items():
        assert _bound(*target) is original, target
    live = {id(w) for w in wrappers.values()}
    assert not any(id(value) in live for value in _bindings())


def test_vertex_list_gauge_is_traced_without_an_lp(tmp_path):
    """`cmd_gauge` on vertex lists gauges by the closed form on their facets,
    so the trace holds `minkowski_gauge` and `origin_interior` spans and no
    `lp.solve` span: a `gauge.lp.solve.calls` of 0 is by design, not a lost
    wrapper."""
    tracing = _load_tracing()
    rng = Random("trace-targets:vertex-gauge")
    S = gen.rand_absorbing_pair(rng, 2)
    assert S.p1.built_from_vertices() and S.p2.built_from_vertices()
    body = tmp_path / "set.json"
    body.write_text(json.dumps(encode_dconvex(S)))
    point = tmp_path / "point.json"
    point.write_text(json.dumps(encode_dvector(gen.rand_dvector(rng, 2))))

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cmd_gauge(str(body), str(point), out=io.StringIO()) == 0
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert {"convex.minkowski_gauge", "polytope.origin_interior"} <= set(names)
    assert "lp.solve" not in names

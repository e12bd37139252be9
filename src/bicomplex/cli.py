"""Command-line front end: verification suites, separations, and gauges.

Three subcommands:

``verify``
    Runs one or all property suites deterministically from a seed and prints
    a text or JSON report.  Exit 0 when every check passes, 1 when any check
    fails, 2 on bad flags or a report file that cannot be written.

``separate``
    Reads a JSON file with a pair of D-convex sets, writes a separation
    certificate.  Exit 0 with a certificate, 1 with a witness record when the
    sets are not component-disjoint, a not-open record when the first set is
    closed, an empty-interior record when a component of the open set is
    lower-dimensional, or a refused record naming the error for any other
    input the construction cannot handle; 2 on malformed input (numbers that
    are not finite included) or an output file that cannot be written.

``gauge``
    Reads a D-convex set and a point, prints the two gauge components.
    Exit 0 on success, 1 when the set is not absorbing or the gauge cannot
    be evaluated on it, 2 on malformed input (numbers that are not finite
    included).

Reports are byte-identical across runs with the same flags, except for the
``wall_time_s`` fields.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from types import ModuleType
from typing import Optional

from . import serialize
from .analysis import separate_hyperbolic
from .backend import BACKENDS, EXACT, encode_real
from .convex import minkowski_gauge
from .errors import (
    BicomplexError,
    DimensionMismatch,
    EmptyInteriorError,
    NotDisjointError,
    NotOpenError,
    SchemaError,
)


def _lazy_import(name: str) -> ModuleType:
    """The module ``name``, registered at once but executed on first attribute use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# Only ``verify`` runs the property suites (about 1150 lines, plus the
# instance generators).  The module is registered lazily, so ``separate`` and
# ``gauge`` never execute it, while code that looks it up in sys.modules (a
# profiler wrapping its functions, say) still finds it.
suites = _lazy_import("bicomplex.suites")
# suites.SUITE_NAMES, spelled out so that building the parser runs no suite
# code (a test checks that the two agree)
SUITE_NAMES = ("algebra", "order", "metric", "linear", "convex", "separation", "theorems")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomplex",
        description="Verification tools for bicomplex/hyperbolic scalar algebra, "
        "modules, convexity, and separation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the seeded property suites")
    verify.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all",
                        help="which suite to run (default: all)")
    verify.add_argument("--seed", type=int, default=0, help="deterministic seed (default: 0)")
    verify.add_argument("--cases", type=_positive_int, default=50,
                        help="cases per suite (default: 50)")
    verify.add_argument("--backend", choices=BACKENDS, default=EXACT,
                        help="scalar backend (default: exact)")
    verify.add_argument("--report", metavar="PATH",
                        help="also write the JSON report to this file")
    verify.add_argument("--format", choices=("text", "json"), default="text",
                        dest="fmt", help="stdout format (default: text)")

    separate = sub.add_parser("separate", help="separate two D-convex sets from a JSON file")
    separate.add_argument("input", help='JSON file with {"A": <set>, "B": <set>}')
    separate.add_argument("output", nargs="?",
                          help="certificate destination (default: stdout)")

    gauge = sub.add_parser("gauge", help="evaluate a Minkowski gauge at a point")
    gauge.add_argument("polytope", help="JSON file with a D-convex set")
    gauge.add_argument("point", help="JSON file with a D-vector")
    gauge.add_argument("--backend", choices=BACKENDS, default=EXACT,
                       help="scalar backend (default: exact)")

    return parser


# -- verify -----------------------------------------------------------------------


def cmd_verify(suite: str, seed: int, cases: int, backend: str,
               report: Optional[str] = None, fmt: str = "text",
               out=None) -> int:
    out = out if out is not None else sys.stdout
    names = SUITE_NAMES if suite == "all" else (suite,)
    reports = [suites.run_suite(name, seed, cases, backend) for name in names]
    document = {
        "seed": seed,
        "cases": cases,
        "backend": backend,
        "ok": all(r.ok for r in reports),
        "suites": [r.as_dict() for r in reports],
    }
    if report is not None:
        try:
            _write(report, json.dumps(document, indent=2) + "\n")
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    if fmt == "json":
        out.write(json.dumps(document, indent=2) + "\n")
    else:
        for r in reports:
            out.write(r.text() + "\n")
        passed = sum(1 for r in reports if r.ok)
        out.write(f"{passed}/{len(reports)} suites passed\n")
    return 0 if document["ok"] else 1


# -- separate ---------------------------------------------------------------------


def _load_json(path: str):
    """The document in the file; one that is not UTF-8, nests too deeply to
    parse or holds an integer longer than Python converts (4300 digits by
    default) raises `SchemaError`, like any other malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            raise SchemaError(f"{path}: {exc}") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(document: dict, output: Optional[str], out, err, code: int) -> int:
    """Write the record to the output file, else to ``out``, and return
    ``code``; 2 when the output file cannot be written."""
    text = json.dumps(document, indent=2) + "\n"
    if output is None:
        out.write(text)
        return code
    try:
        _write(output, text)
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return 2
    return code


def cmd_separate(input_path: str, output: Optional[str] = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        obj = _load_json(input_path)
        if not isinstance(obj, dict) or "A" not in obj or "B" not in obj:
            raise SchemaError('separation input needs keys "A" and "B"')
        A = serialize.decode_dconvex(obj["A"], where="A")
        B = serialize.decode_dconvex(obj["B"], where="B")
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    try:
        record, code = _separation_record(A, B)
    except DimensionMismatch as exc:
        err.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:  # an exact value too long for str (Python's digit limit)
        record, code = {"status": "refused", "error": type(exc).__name__, "message": str(exc)}, 1
    return _emit(record, output, out, err, code)


def _separation_record(A, B) -> tuple[dict, int]:
    """The certificate of A and B, or the record of why there is none, with
    its exit code; `DimensionMismatch` propagates."""
    try:
        cert = separate_hyperbolic(A, B)
    except DimensionMismatch:
        raise
    except NotDisjointError as exc:
        return {
            "status": "not-disjoint",
            "component": exc.component,
            "witness": [encode_real(c) for c in exc.witness],
            "message": str(exc),
        }, 1
    except NotOpenError as exc:
        return {"status": "not-open", "message": str(exc)}, 1
    except EmptyInteriorError as exc:
        return {"status": "empty-interior", "component": exc.component, "message": str(exc)}, 1
    except BicomplexError as exc:
        return {"status": "refused", "error": type(exc).__name__, "message": str(exc)}, 1
    document = serialize.encode_certificate(cert)
    document["status"] = "separated"
    return document, 0


# -- gauge ------------------------------------------------------------------------


def _format_component(value, backend: str) -> str:
    if backend == EXACT:
        return str(value)  # Fractions print as p/q, integers plainly
    return str(float(value))


def cmd_gauge(polytope_path: str, point_path: str, backend: str = EXACT,
              out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        S = serialize.decode_dconvex(_load_json(polytope_path), backend, where="set")
        x = serialize.decode_dvector(_load_json(point_path), backend, where="point")
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        err.write(f"error: {exc}\n")
        return 2
    try:
        q = minkowski_gauge(S, x).hyper()
        line = f"{_format_component(q.a1, backend)} {_format_component(q.a2, backend)}\n"
    except DimensionMismatch as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (BicomplexError, ValueError) as exc:
        # not absorbing, a set the gauge cannot read, or a value too long for str
        err.write(f"error: {exc}\n")
        return 1
    out.write(line)
    return 0


# -- entry point ------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.suite, args.seed, args.cases, args.backend,
                          args.report, args.fmt)
    if args.command == "separate":
        return cmd_separate(args.input, args.output)
    return cmd_gauge(args.polytope, args.point, args.backend)


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())

"""Per-layer spans for one `normfilt` invocation, installed from outside the package.

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- <normfilt arguments>

runs the CLI exactly as the `normfilt` script does, with the public functions
of each layer wrapped in timing spans, and writes the per-span totals to
OUT.json. Self time is a span's duration minus the time of the spans it
encloses, so work in unwrapped helpers is charged to the nearest wrapped
caller. Work counters are computed from call arguments and results, outside
the timed interval.

Modules import each other's functions by name, so a wrapper is bound in
place of every reference to the original in every loaded normfilt module;
OUT.json lists those rebinds.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import prod

LAYERS = ("inputs", "backends", "newton", "monomial", "semigroup", "linalg",
          "filtration", "theorems", "reports", "cli")


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "counts", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.counts: dict[str, int] = {}
        self.distinct: set = set()

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def to_dict(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s, **self.counts}
        if self.distinct:
            out["distinct"] = len(self.distinct)
        return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.rebound: list[str] = []
        self.missing: list[str] = []  # names to wrap that the package no longer has
        self.hook_errors: set[str] = set()
        self._open: list[float] = []  # per open span: time covered by its child spans
        self._depth: dict[str, int] = {}

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def span(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before(stat, args) runs untimed ahead of the
        call, after(stat, args, result, exc) untimed behind it."""
        stat = self.stat(name)
        open_, depth, perf = self._open, self._depth, time.perf_counter
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(name, before, stat, args)
            open_.append(0.0)
            depth[name] += 1
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                elapsed = perf() - t0
                depth[name] -= 1
                stat.calls += 1
                stat.self_s += elapsed - open_.pop()
                if not depth[name]:
                    stat.incl_s += elapsed
                if after is not None:
                    t1 = perf()
                    self._hook(name, after, stat, args, result, exc)
                    elapsed += perf() - t1
                if open_:
                    open_[-1] += elapsed

        return wrapper

    def _hook(self, name, hook, *args):
        """Run a counter hook; a hook that no longer fits the program is
        reported, and must not break the run it observes."""
        try:
            hook(*args)
        except Exception as exc:
            self.hook_errors.add(f"{name}: {exc!r}")

    def counter(self, name, fn):
        """fn wrapped to count calls only; its time stays with the caller."""
        stat = self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def replace(self, module: str, attr: str, make):
        """Bind make(original) in place of module.attr everywhere it is referenced."""
        original = getattr(sys.modules.get(f"normfilt.{module}"), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "normfilt" and not mod_name.startswith("normfilt."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)
                    self.rebound.append(f"{mod_name.removeprefix('normfilt.') or 'normfilt'}.{key}")

    def to_dict(self) -> dict:
        return {
            "spans": {name: s.to_dict() for name, s in sorted(self.stats.items())},
            "rebound": sorted(self.rebound),
            "missing": self.missing,
            "hook_errors": sorted(self.hook_errors),
        }


# --- work counters ------------------------------------------------------------

def _pure_powers(ideal):
    from normfilt.monomial import pure_power_exponents

    exps = pure_power_exponents(ideal)
    return None if None in exps else exps


def _count_pairs(stat, args, result, exc):
    a, b = args[:2]
    stat.add("pairs", len(a.gens) * len(b.gens))


def _count_quotient_box(stat, args, result, exc):
    exps = _pure_powers(args[1])
    if exps is not None:
        stat.add("box_points", prod(exps))


def _count_closure_box(stat, args, result, exc):
    ideal, n = args[:2]
    exps = _pure_powers(ideal) if n > 0 else None
    if exps is not None:
        stat.add("box_points", prod(n * e + 1 for e in exps))


def _count_hull(stat, args, result, exc):
    stat.distinct.add(args[0])
    if result is not None:
        stat.add("halfspaces", len(result.halfspaces))


def _count_ext_cells(stat, args, result, exc):
    a, b = args[:2]
    stat.add("box_cells", prod((x + y + 1) * (x + y + 2) // 2 for x, y in zip(a.cap, b.cap)))


def _count_term_hit(stat, args):
    filt, n = args[:2]
    if n in filt._terms:
        stat.add("hits")


def _count_horizon_errors(stat, args, result, exc):
    from normfilt.errors import HorizonError

    if isinstance(exc, HorizonError):
        stat.add("horizon_errors")


def _count_verdicts(stat, args, result, exc):
    for verdict in result or ():
        stat.add(f"verdict.{verdict.conclusion}")


def _count_bytes(stat, args, result, exc):
    if result is not None:
        stat.add("bytes_out", len(result.encode("utf-8")))


# (module, function, span, after-counter); several functions may share a span.
SPANS = (
    ("inputs", "parse_input", "inputs.parse", None),
    ("inputs", "build_entry", "inputs.build", None),
    ("newton", "newton_polyhedron", "newton.hull", _count_hull),
    ("newton", "closure_power", "newton.closure_power", _count_closure_box),
    ("newton", "multiplicity", "newton.multiplicity", None),
    ("monomial", "multiply", "monomial.multiply", _count_pairs),
    ("monomial", "intersect", "monomial.intersect", _count_pairs),
    ("monomial", "quotient_length", "monomial.quotient_length", _count_quotient_box),
    ("monomial", "colon", "monomial.colon", None),
    ("semigroup", "ext_mul", "semigroup.ext_mul", _count_ext_cells),
    ("semigroup", "ext_intersect", "semigroup.ext_intersect", None),
    ("semigroup", "ext_quotient_length", "semigroup.ext_quotient_length", None),
    ("semigroup", "ext_normal_power", "semigroup.ext_normal_power", None),
    ("semigroup", "ext_colon", "semigroup.ext_colon", None),
    ("linalg", "solve_square", "linalg.solve_square", None),
    ("filtration", "length_table", "filtration.length_table", None),
    ("filtration", "reduction_number", "filtration.reduction_number", None),
    ("filtration", "valabrega_valla", "filtration.valabrega_valla", None),
    ("filtration", "fit_coefficients", "filtration.fit", _count_horizon_errors),
    ("filtration", "sally_from_tables", "filtration.fit", _count_horizon_errors),
    ("filtration", "intersection_failures", "filtration.intersection_failures", None),
    ("theorems", "analyze", "theorems.analyze", None),
    ("theorems", "run_checks", "theorems.run_checks", _count_verdicts),
    ("reports", "table_payload", "reports.payload", None),
    ("reports", "coeffs_payload", "reports.payload", None),
    ("reports", "sally_payload", "reports.payload", None),
    ("reports", "check_payload", "reports.payload", None),
    ("reports", "corpus_payload", "reports.payload", None),
    ("reports", "render", "reports.render", _count_bytes),
    ("cli", "main", "cli", None),
)


def install() -> Tracer:
    """Import every layer and wrap its public functions; returns the tracer."""
    tracer = Tracer()
    for layer in LAYERS:
        try:
            importlib.import_module(f"normfilt.{layer}")
        except ModuleNotFoundError:
            tracer.missing.append(layer)
    for module, attr, name, after in SPANS:
        tracer.replace(module, attr, lambda fn, name=name, after=after: tracer.span(name, fn, after=after))
    tracer.replace("linalg", "det", lambda fn: tracer.counter("linalg.det", fn))

    filtration = getattr(sys.modules.get("normfilt.filtration"), "Filtration", None)
    if callable(getattr(filtration, "term", None)):
        filtration.term = tracer.span("filtration.term", filtration.term, before=_count_term_hit)
    else:
        tracer.missing.append("filtration.Filtration.term")
    for cls_name in ("PolynomialBackend", "SemigroupBackend"):
        cls = getattr(sys.modules.get("normfilt.backends"), cls_name, None)
        if cls is None:
            tracer.missing.append(f"backends.{cls_name}")
            continue
        for key, value in list(vars(cls).items()):
            if callable(value) and not key.startswith("_"):
                setattr(cls, key, tracer.span("backends", value))
    checks = getattr(sys.modules.get("normfilt.theorems"), "CHECKS", {})
    for check_id, (fn, description) in list(checks.items()):
        checks[check_id] = (tracer.span(f"theorems.check.{check_id}", fn), description)
    return tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <normfilt arguments>", file=sys.stderr)
        return 2
    tracer = install()
    cli = sys.modules["normfilt.cli"]
    try:
        code = cli.main(argv[2:])
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    sys.stdout.flush()
    with open(argv[0], "w") as f:
        json.dump(tracer.to_dict(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

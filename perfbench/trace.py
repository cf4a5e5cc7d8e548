"""Spans around calls into the ``diskinterp`` modules, recorded from outside.

While a :class:`Recorder` is installed, every module-level binding of the
traced functions in the six package modules (the defining module's own
global as well as every ``from .x import f`` copy) points at a wrapper
that records a span: name, start, end, parent span and op.  The bindings
are restored when the ``with`` block ends, so untraced ops run the
original functions.  A span's layer is the module that defines the
function.  Private helpers that are not listed (``_mobius``,
``check_interior``, ``_check_closed_disk``) count toward their caller.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "hoffman", "pick", "blaschke", "geometry")

# (defining module, function, span name).
TRACED = (
    ("harness", "verify_theorem_chain", "harness.chain"),
    ("hoffman", "corresponding_decomposition", "hoffman.corresponding_decomposition"),
    ("hoffman", "decompose", "hoffman.decompose"),
    ("hoffman", "exclusion_grid", "hoffman.exclusion_grid"),
    ("hoffman", "comparability_fit", "hoffman.comparability_fit"),
    ("pick", "solve_pick", "pick.solve"),
    ("pick", "min_norm", "pick.min_norm"),
    ("pick", "is_feasible", "pick.is_feasible"),
    ("pick", "construct_interpolant", "pick.construct"),
    ("pick", "interpolant_eval", "pick.interpolant_eval"),
    ("pick", "_sup_on_circle", "pick.sup_on_circle"),
    ("blaschke", "analyze", "blaschke.analyze"),
    ("blaschke", "blaschke_eval", "blaschke.eval"),
    ("blaschke", "blaschke_eval_excluding", "blaschke.eval_excluding"),
    ("blaschke", "blaschke_log_modulus", "blaschke.log_modulus"),
    ("blaschke", "per_point_moduli", "blaschke.per_point_moduli"),
    ("blaschke", "separation_constant", "blaschke.separation_constant"),
    ("blaschke", "carleson_constant", "blaschke.carleson_constant"),
    ("geometry", "pseudohyperbolic_distance", "geometry.distance"),
)


class Recorder:
    """Spans and counters of the traced ops, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, op]
        self.counts = Counter()
        self.values = defaultdict(list)
        self.op = -1
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str, tally):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(index)
                if tally is not None:
                    tally(self, args, None, exc)
                raise
            self.end(index)
            if tally is not None:
                tally(self, args, result, None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Point every traced binding at its wrapper for the block's duration."""
        modules = [getattr(self.package, m) for m in LAYERS]
        restore = []
        try:
            for module_name, attr, name in TRACED:
                original = getattr(getattr(self.package, module_name), attr)
                wrapper = self._wrap(original, name, TALLIES.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
            cls = self.package.blaschke.PointSequence
            original = cls.__post_init__
            restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(original, "blaschke.sequence", None)
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def durations(self) -> tuple[dict[str, float], Counter]:
        """Inclusive seconds and call counts per span name."""
        total, calls = defaultdict(float), Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return total, calls


def _decompose(rec, args, result, exc):
    if result is None:
        return
    n = len(result.base)
    rec.values["hoffman.fitted_b"].append(result.fitted_b)
    if n <= rec.package.hoffman.EXHAUSTIVE_LIMIT:
        partitions = 2 ** (n - 1) - 1
        rec.counts["hoffman.partition_evals"] += partitions * result.fit_grid_size


def _grid(rec, args, result, exc):
    if result is not None:
        rec.counts["hoffman.grid_points"] += len(result)


def _solve(rec, args, result, exc):
    if result is not None:
        rec.counts["pick.solve.ok"] += 1


def _construct(rec, args, result, exc):
    if isinstance(exc, rec.package.RecursionBreakdownError):
        rec.counts["pick.breakdowns"] += 1


def _interpolant_eval(rec, args, result, exc):
    rec.counts["pick.interpolant_eval.points"] += int(np.size(args[1]))


def _log_modulus(rec, args, result, exc):
    rec.counts["blaschke.log_modulus.factor_evals"] += len(args[0]) * int(np.size(args[1]))


def _distance(rec, args, result, exc):
    if result is not None:
        rec.counts["geometry.distance.pairs"] += int(np.size(result))


TALLIES = {
    "hoffman.decompose": _decompose,
    "hoffman.exclusion_grid": _grid,
    "pick.solve": _solve,
    "pick.construct": _construct,
    "pick.interpolant_eval": _interpolant_eval,
    "blaschke.log_modulus": _log_modulus,
    "geometry.distance": _distance,
}


def layer_metrics(rec: Recorder, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes, averaged per pass."""
    self_s = rec.self_times()
    total, calls = rec.durations()
    layer_self = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".")[0]] += seconds
    counts = rec.counts
    fitted_b = rec.values["hoffman.fitted_b"]
    construct_calls = calls["pick.construct"]
    raw = {
        "cli.calls": (calls["cli.main"], "count"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.bytes_out": (counts["cli.bytes_out"], "bytes"),
        "cli.exit_nonzero": (counts["cli.exit_nonzero"], "count"),
        "harness.chain.calls": (calls["harness.chain"], "count"),
        "harness.self_s": (layer_self["harness"], "s"),
        "hoffman.decompose.calls": (calls["hoffman.decompose"], "count"),
        "hoffman.self_s": (layer_self["hoffman"], "s"),
        "hoffman.exclusion_grid_s": (total["hoffman.exclusion_grid"], "s"),
        "hoffman.comparability_fit_s": (total["hoffman.comparability_fit"], "s"),
        "hoffman.grid_points": (counts["hoffman.grid_points"], "count"),
        "hoffman.partition_evals": (counts["hoffman.partition_evals"], "count"),
        "pick.solve.calls": (calls["pick.solve"], "count"),
        "pick.solve.ok": (counts["pick.solve.ok"], "count"),
        "pick.min_norm_s": (total["pick.min_norm"], "s"),
        "pick.self_s": (layer_self["pick"], "s"),
        "pick.is_feasible.calls": (calls["pick.is_feasible"], "count"),
        "pick.construct.calls": (construct_calls, "count"),
        "pick.breakdowns": (counts["pick.breakdowns"], "count"),
        "pick.interpolant_eval_s": (total["pick.interpolant_eval"], "s"),
        "pick.interpolant_eval.points": (counts["pick.interpolant_eval.points"], "count"),
        "blaschke.self_s": (layer_self["blaschke"], "s"),
        "blaschke.eval.calls": (
            calls["blaschke.eval"] + calls["blaschke.eval_excluding"], "count"),
        "blaschke.log_modulus_s": (total["blaschke.log_modulus"], "s"),
        "blaschke.log_modulus.factor_evals": (
            counts["blaschke.log_modulus.factor_evals"], "count"),
        "blaschke.per_point_moduli_s": (total["blaschke.per_point_moduli"], "s"),
        "blaschke.sequence.calls": (calls["blaschke.sequence"], "count"),
        "blaschke.sequence_s": (total["blaschke.sequence"], "s"),
        "geometry.self_s": (layer_self["geometry"], "s"),
        "geometry.distance.calls": (calls["geometry.distance"], "count"),
        "geometry.distance.pairs": (counts["geometry.distance.pairs"], "count"),
    }
    out = {name: (value / passes, unit) for name, (value, unit) in raw.items()}
    # Ratios and averages are not divided by the pass count.
    out["hoffman.fitted_b"] = (float(np.mean(fitted_b)) if fitted_b else 0.0, "1")
    out["pick.construct_useful_ratio"] = (
        counts["pick.solve.ok"] / construct_calls if construct_calls else 0.0, "ratio")
    return out

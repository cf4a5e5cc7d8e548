"""Shared fixtures and helpers for the test suite."""

import collections
import json

import numpy as np
import pytest

from diskinterp import PointSequence, blaschke, cli, geometry, harness, hoffman, pick


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def counted_calls(monkeypatch):
    """Counts calls of every function that evaluates factor log-moduli.

    ``exclusion_grid`` counts as one: it fills the rim table of every
    factor at every rim sample.

    Every binding of each function in the package's modules is counted,
    the defining module's and each ``from .x import f`` copy.
    """
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (blaschke, cli, geometry, harness, hoffman, pick):
        for name in ("exclusion_grid", "log_factors", "comparability_fit",
                     "blaschke_log_modulus"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def random_separated(rng, count: int, min_sep: float, max_abs: float = 0.85):
    """Rejection-sample a pseudohyperbolically separated point list."""
    points: list[complex] = []
    while len(points) < count:
        z = complex(*rng.uniform(-max_abs, max_abs, 2))
        if abs(z) >= max_abs:
            continue
        if all(abs((z - w) / (1 - np.conj(w) * z)) >= min_sep for w in points):
            points.append(z)
    return points


def make_sequence(rng, count: int, min_sep: float = 0.05) -> PointSequence:
    return PointSequence(tuple(random_separated(rng, count, min_sep)))


def write_document(path, points, label: str = "test") -> str:
    doc = cli.sequence_to_document(PointSequence(tuple(points), label=label))
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv: list[str]) -> int:
    """Invoke the CLI entry in-process and return its exit code."""
    return cli.main(argv)

"""Workload definitions and seeded input generation.

Each workload is a fixed list of ``diskinterp`` command lines over point
documents drawn by ``generate_separated_random``.  Every input is derived
from the benchmark seed, so one seed always yields the same documents and
the same argv.

Run as a script, this module performs one timed set-up: it imports
``diskinterp`` from the checkout's ``src/``, generates the workload's
documents, writes them and a manifest into DIR, and prints
``{"setup_s": ...}``.  Nothing outside the standard library is imported
before the clock starts, so the time includes the cold import of numpy.

    python3 perfbench/workloads.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Each workload: the subcommand, extra flags, and (n, separation, inputs)
# per size.  Every input of a pass is a distinct random sequence.
#
# chain: n = 8..14 runs the exhaustive split search, n >= 17 the local
# search.  n = 16 is left out because one op takes about 10 s.  Counts are
# weighted so the median op always falls among the n = 10 ops, whichever
# n = 17 and 20 inputs fail, and the failing sizes (n >= 24 today) put
# more than ten executions beyond the tail in every run.
# interpolate: the Pick solver alone; hoffman is never called.  Each input
# is solved for zero/one parity targets and for random targets.  Most
# inputs are at n <= 16, where whether an op answers varies from input to
# input, so the count of answers is steady from seed to seed; the sizes
# that fail today (n >= 24) still put more than ten samples beyond the
# tail in every run.
# field: CSV export of log|B| on a 256 x 256 grid; formatting-bound.
# analyze: the n x n pairwise sweep at sizes up to the 512-point limit,
# with the separation chosen so the points still pack.
WORKLOADS = {
    "chain": (
        "verify-theorem", (),
        ((8, 0.1, 8), (10, 0.1, 16), (12, 0.1, 2), (14, 0.1, 1),
         (17, 0.1, 3), (20, 0.1, 3), (24, 0.1, 2), (32, 0.1, 2)),
    ),
    "interpolate": (
        "interpolate", (),
        ((8, 0.1, 32), (12, 0.1, 32), (16, 0.1, 32), (24, 0.1, 16),
         (32, 0.1, 8), (48, 0.1, 8), (64, 0.1, 8)),
    ),
    "field": (
        "field", ("--which", "B", "--grid-resolution", "256"),
        ((32, 0.1, 2), (64, 0.1, 5)),
    ),
    "analyze": (
        "analyze", (),
        ((128, 0.05, 8), (256, 0.02, 8), (512, 0.01, 8)),
    ),
}

# Seconds one untraced pass over a workload's ops takes, as a median, on
# the reference machine (a shared 2-core x86_64 virtual machine).  A run
# makes ceil(--seconds / PASS_S) passes, so it measures about --seconds
# there, and the ops it attempts depend only on its arguments.
PASS_S = {"chain": 2.85, "interpolate": 1.5, "field": 1.6, "analyze": 0.34}

# Random interpolation targets are drawn uniformly from |w| <= this.
TARGET_RADIUS = 0.9

MANIFEST = "manifest.json"


def import_diskinterp():
    """Import ``diskinterp`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import diskinterp

    origin = Path(diskinterp.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"diskinterp was imported from {origin}, not from {src}")
    return diskinterp


def sub_seed(seed: int, workload: str, n: int, copy: int) -> int:
    """Seed of one input, derived from the benchmark seed."""
    import numpy as np

    index = list(WORKLOADS).index(workload)
    return int(np.random.SeedSequence([seed, index, n, copy]).generate_state(1)[0])


def _targets(n: int, seed: int) -> dict[str, str]:
    import numpy as np

    rng = np.random.default_rng(seed)
    w = TARGET_RADIUS * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    return {
        "parity": ",".join(str(i % 2) for i in range(n)),
        "random": ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in w),
    }


def generate(workload: str, seed: int, dest: Path) -> list[dict]:
    """Write the workload's documents and manifest into ``dest``.

    Returns the manifest: one entry per op, with its size, input seed,
    target kind and argv.  In argv, the document appears by file name.
    """
    from diskinterp.cli import sequence_to_document
    from diskinterp.harness import generate_separated_random

    command, flags, sizes = WORKLOADS[workload]
    ops = []
    for n, sep, copies in sizes:
        for copy in range(copies):
            s = sub_seed(seed, workload, n, copy)
            doc = f"n{n}-c{copy}.json"
            seq = generate_separated_random(n, sep, s)
            with open(dest / doc, "w", encoding="utf-8") as fh:
                json.dump(sequence_to_document(seq), fh)
            base = {"n": n, "seed": s, "doc": doc}
            if command == "interpolate":
                for kind, targets in _targets(n, s).items():
                    ops.append({**base, "kind": kind,
                                "argv": [command, doc, f"--targets={targets}"]})
            else:
                ops.append({**base, "kind": command,
                            "argv": [command, doc, *flags]})
    for i, op in enumerate(ops):
        op["id"] = f"{workload}-{i:03d}-n{op['n']}-{op['kind']}"
    with open(dest / MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)
    return ops


def _main(argv: list[str]) -> int:
    workload, seed, dest = argv[0], int(argv[1]), Path(argv[2])
    start = time.perf_counter()
    import_diskinterp()
    generate(workload, seed, dest)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

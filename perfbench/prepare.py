"""Set-up before the first operation: import, problem parse, BLAS warm-up.

Run as a script (``python3 perfbench/prepare.py <bundled problem>``, with
the checkout's ``src`` on ``PYTHONPATH``), it does the set-up once and
prints ``ready`` as soon as an operation could begin; the benchmark times
that from process start to report ``setup_s``.
"""

from __future__ import annotations

import sys
import time


def prepare(problem_name: str):
    """Import the package, parse the problem and warm BLAS up, untimed here."""
    import numpy as np

    import chanceopt.cli  # noqa: F401  (the entry point every operation uses)
    from chanceopt.problem_io import parse
    from chanceopt.problems import bundled_path

    problem, options = parse(bundled_path(problem_name))
    # the first batched eigh and matmul pay BLAS/LAPACK thread start-up
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((4, 8, 8))
    np.linalg.eigh(mats + mats.transpose(0, 2, 1))
    _ = mats @ mats
    return problem, options


def settle_blas(limit_s: float = 5.0) -> None:
    """Run multi-threaded eigh calls until five in a row are fast.

    On small virtual machines the first multi-threaded LAPACK calls of a
    process can take ~100x their steady time for about a second.  Kept out
    of every timed region.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((3, 66, 66))
    mats = mats + mats.transpose(0, 2, 1)
    stop = time.perf_counter() + limit_s
    fast = 0
    while fast < 5 and time.perf_counter() < stop:
        t0 = time.perf_counter()
        np.linalg.eigh(mats)
        fast = fast + 1 if time.perf_counter() - t0 < 0.02 else 0


if __name__ == "__main__":
    prepare(sys.argv[1])
    print("ready", flush=True)

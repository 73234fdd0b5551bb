"""Time the eigensolve of H = diag(x) + c u u^T by both routes; write BENCH_h_eigensolve.json.

    python3 bench/h_eigensolve.py [--output BENCH_h_eigensolve.json]

Run from the root of a checkout; the package is imported from ``src/``.
BLAS threads are pinned to the number of usable cores before NumPy loads.
For each n in ``SIZES`` and c in ``COUPLINGS`` of the default rank-one model
(gaussian bump, L = 8) it times, as medians over ``REPEATS`` fresh models:

- the dense route that ``RankOneModel.h`` and ``SelfAdjointMatrix.eig`` take:
  assembly of the validated dense H, ``numpy.linalg.eigh`` and the n^3
  reconstruction check;
- the secular route of ``RankOneModel.eig``: ``DiagonalPlusRankOne.eig``
  (secular solve plus its O(n^2) check), and the check alone.

Every case carries cross-checks taken in the same run: the largest
eigenvalue and P = Q∘Q differences between the routes, the largest column
residual |x∘q_k + c u (u^T q_k) - w_k q_k| and the orthogonality defect
max|Q^T Q - I| of the secular eigenvectors.  The machine block records the
core count, the BLAS NumPy was built with and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (800, 1500, 4000)
COUPLINGS = (0.5, -0.7)
REPEATS = 3


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def case(n: int, c: float, repeats: int) -> dict:
    """Timings (medians over ``repeats`` fresh models) and cross-checks of one (n, c)."""
    import numpy as np

    from specdiff.models import RankOneModel

    times = {key: [] for key in ("assembly_s", "eigh_s", "reconstruction_s",
                                 "solve_and_check_s", "check_s")}
    for _ in range(repeats):
        model = RankOneModel(n=n, c=c)
        t0 = time.perf_counter()
        a = model.h.entries
        t1 = time.perf_counter()
        w_dense, q_dense = np.linalg.eigh(a)
        t2 = time.perf_counter()
        reconstruction = float(np.max(np.abs((q_dense * w_dense) @ q_dense.T - a)))
        t3 = time.perf_counter()
        scale = max(1.0, float(np.max(np.abs(a))))
        p_dense = q_dense * q_dense
        del model, a, q_dense

        model = RankOneModel(n=n, c=c)
        t4 = time.perf_counter()
        w, q = model.eig()
        t5 = time.perf_counter()
        model.rank_one.check(w, q)
        t6 = time.perf_counter()
        for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t5 - t4, t6 - t5)):
            times[key].append(dt)

    med = {key: statistics.median(values) for key, values in times.items()}
    dense_s = med["assembly_s"] + med["eigh_s"] + med["reconstruction_s"]
    return {
        "n": n,
        "c": c,
        "dense": {"assembly_s": med["assembly_s"], "eigh_s": med["eigh_s"],
                  "reconstruction_s": med["reconstruction_s"], "total_s": dense_s},
        "secular": {"solve_and_check_s": med["solve_and_check_s"], "check_s": med["check_s"]},
        "speedup": dense_s / med["solve_and_check_s"],
        "cross_checks": {
            "max_abs_w_minus_dense": float(np.max(np.abs(w - w_dense))),
            "max_abs_p_minus_dense": float(np.max(np.abs(q * q - p_dense))),
            "max_column_residual": model.rank_one.residual(w, q),
            "orthogonality_defect": float(np.max(np.abs(q.T @ q - np.eye(n)))),
            "dense_reconstruction_residual": reconstruction,
            "entry_scale": scale,
        },
    }


def main(argv=None) -> int:
    import numpy as np

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_h_eigensolve.json"))
    args = parser.parse_args(argv)
    np.linalg.eigh(np.diag(np.arange(64.0)))  # LAPACK's first-call set-up stays out of the timings
    cases = []
    for n in SIZES:
        for c in COUPLINGS:
            cases.append(case(n, c, REPEATS))
            row = cases[-1]
            print(f"n={n:5d} c={c:+.2f}  dense {row['dense']['total_s']:.3f} s  "
                  f"secular {row['secular']['solve_and_check_s']:.3f} s  "
                  f"x{row['speedup']:.1f}", file=sys.stderr)
    payload = {
        "benchmark": "h_eigensolve",
        "command": ["python3", "bench/h_eigensolve.py", *(argv if argv is not None else sys.argv[1:])],
        "repeats": REPEATS,
        "machine": machine(),
        "cases": cases,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # must happen before NumPy is imported
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())

"""Time the layers of a sweep that have a dense oracle; write BENCH_layers.json.

    python3 bench/layers.py [--output BENCH_layers.json]

Run from the root of a checkout; the package is imported from ``src/``.
BLAS threads are pinned to the number of usable cores before NumPy loads.
For each n in ``SIZES`` of the default rank-one model (gaussian bump, L = 8)
it times, as medians over ``REPEATS`` runs:

- the H eigensolve, for each c in ``COUPLINGS``, on fresh models: the dense
  route that ``RankOneModel.h`` and ``SelfAdjointMatrix.eig`` take (assembly
  of the validated dense H, ``numpy.linalg.eigh`` and the n^3
  reconstruction check) against the secular route of ``RankOneModel.eig``
  (``DiagonalPlusRankOne.eig``, the secular solve plus its O(n^2) check),
  and the check alone;
- the D_eps spectrum, for each eps in ``EPSILONS`` at c = 0.5, lam = 0 and
  ARCTAN_HALF, on fresh D_eps: the block pass of
  ``SpectralDifference.window_eigenvalues`` at the default window's
  threshold 0.4 (Tr D^2 is taken before the clock starts, as a sweep does)
  against the dense route of ``SpectralDifference.eigenvalues`` (the dense
  D, its validation and ``numpy.linalg.eigvalsh``).

Every case carries cross-checks taken in the same run.  For H: the largest
eigenvalue and P = Q∘Q differences between the routes, the largest column
residual |x∘q_k + c u (u^T q_k) - w_k q_k| and the orthogonality defect
max|Q^T Q - I| of the secular eigenvectors.  For D_eps: the largest
|theta - y| between the Ritz values and the dense eigenvalues with |y| > 1e-6,
matched from the outside in on each side, the counts in the default window
(0.4, 1) by both routes, the block width and the certificate remainder
R = Tr D^2 minus the sum of theta^2.  The machine block records the core
count, the BLAS NumPy was built with and the BLAS thread setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (800, 1500, 4000)
COUPLINGS = (0.5, -0.7)
EPSILONS = (0.1, 0.01, 3e-3)
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


def h_case(n: int, c: float, repeats: int) -> dict:
    """H eigensolve timings (medians over ``repeats`` fresh models) and cross-checks of one (n, c)."""
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


def spectrum_case(model, eps: float, repeats: int) -> dict:
    """D_eps spectrum timings (medians over ``repeats`` fresh D_eps) and cross-checks of one eps."""
    import numpy as np

    from specdiff.experiments import count_window
    from specdiff.models import ResolutionGuardWarning
    from specdiff.profiles import builtin_profile

    psi = builtin_profile("ARCTAN_HALF")
    times = {"block_pass_s": [], "dense_s": []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionGuardWarning)
        for _ in range(repeats):
            d = model.build_d_eps(psi, eps, 0.0)
            d.trace_power(2)
            t0 = time.perf_counter()
            theta = d.window_eigenvalues(0.4)
            t1 = time.perf_counter()
            y = model.build_d_eps(psi, eps, 0.0).eigenvalues()
            t2 = time.perf_counter()
            times["block_pass_s"].append(t1 - t0)
            times["dense_s"].append(t2 - t1)

    med = {key: statistics.median(values) for key, values in times.items()}
    top, bottom = int(np.count_nonzero(y > 1e-6)), int(np.count_nonzero(y < -1e-6))
    differences = np.concatenate((theta[theta.size - top:] - y[y.size - top:],
                                  theta[:bottom] - y[:bottom]))
    return {
        "n": model.n,
        "eps": eps,
        **med,
        "speedup": med["dense_s"] / med["block_pass_s"],
        "cross_checks": {
            "max_abs_theta_minus_dense": float(np.max(np.abs(differences), initial=0.0)),
            "retained_eigenvalues": top + bottom,
            "count_block_pass": count_window(theta, (0.4, 1.0)),
            "count_dense": count_window(y, (0.4, 1.0)),
            "block_width": int(theta.size),
            "remainder": d.trace_power(2) - float(theta @ theta),
        },
    }


def main(argv=None) -> int:
    import numpy as np

    from specdiff.models import RankOneModel

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    np.linalg.eigh(np.diag(np.arange(64.0)))  # LAPACK's first-call set-up stays out of the timings
    h_cases, spectrum_cases = [], []
    for n in SIZES:
        for c in COUPLINGS:
            row = h_case(n, c, REPEATS)
            h_cases.append(row)
            print(f"H     n={n:5d} c={c:+.2f}  dense {row['dense']['total_s']:.3f} s  "
                  f"secular {row['secular']['solve_and_check_s']:.3f} s  "
                  f"x{row['speedup']:.1f}", file=sys.stderr)
        model = RankOneModel(n=n, c=0.5)
        model.overlaps()
        for eps in EPSILONS:
            row = spectrum_case(model, eps, REPEATS)
            spectrum_cases.append(row)
            print(f"D_eps n={n:5d} eps={eps:<6g}  dense {row['dense_s']:.3f} s  "
                  f"block pass {row['block_pass_s']:.3f} s  x{row['speedup']:.1f}",
                  file=sys.stderr)
    payload = {
        "benchmark": "layers",
        "command": ["python3", "bench/layers.py", *(argv if argv is not None else sys.argv[1:])],
        "repeats": REPEATS,
        "machine": machine(),
        "h_eigensolve": h_cases,
        "d_eps_spectrum": spectrum_cases,
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

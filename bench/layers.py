"""Time the layers of a sweep that have a dense oracle; write BENCH_layers.json.

    python3 bench/layers.py [--output BENCH_layers.json]

Run from the root of a checkout; the package is imported from ``src/``.
BLAS threads are pinned to the number of usable cores before NumPy loads.
For each n in ``SIZES`` of the default rank-one model (gaussian bump, L = 8)
it times, as medians over ``REPEATS`` runs (``D_EPS_REPEATS`` for the fast
D_eps layers):

- the Gauss-Legendre nodes and weights that every model is built on:
  ``specdiff.quadrature.gauss_legendre`` (Bogaert's O(n) formulas) and,
  for comparison, SciPy's ``scipy.special.roots_legendre``;
- the H eigensolve, for each c in ``COUPLINGS``, on fresh models: the dense
  route that ``RankOneModel.h`` and ``SelfAdjointMatrix.eig`` take (assembly
  of the validated dense H, ``numpy.linalg.eigh`` and the n^3
  reconstruction check) against the secular route of ``RankOneModel.eig``
  (``DiagonalPlusRankOne.eig`` of the m x m kept block, the secular solve
  plus its O(m^2) check), the check alone, the split into the kept block
  (``kept`` and ``block``, with its O(n) dropped-coupling bound),
  P = Q∘Q (``RankOneModel.overlaps``) and the start of the block pass,
  (Ω, Q^T Ω) (``RankOneModel.start_block``), both once per model; and, on
  one more fresh model, the tracemalloc peak of ``RankOneModel.eig``;
- the D_eps layers, for each eps in ``EPSILONS`` at c = 0.5, lam = 0 and
  ARCTAN_HALF, on fresh D_eps over the kept block: the traces of D, D^2 and
  D^3 from P = Q∘Q, and the block pass of
  ``SpectralDifference.window_eigenvalues`` at the default window's
  threshold 0.4 (the range of D Ω, from the model's Q^T Ω, and
  Rayleigh-Ritz in factored form: two products with Q per block; Tr D^2 is
  taken before the clock starts, as a sweep does),
  each over ``D_EPS_REPEATS`` fresh D_eps, since one run in several can
  take ten times the others; against the dense route of the oracle (the
  n x n D from the dense H's eigenpairs and ``numpy.linalg.eigvalsh``) over
  the first ``REPEATS`` of them;
- the two layers of ``K_eps`` (no rank-one model), as medians over
  ``HANKEL_REPEATS`` runs: the trace pass of ``k_eps_trace_slopes`` over
  ``HANKEL_EPS`` (the Carleman section on ``section_grid``) against the
  t-grid Nystrom route of the oracle (``discretize_hankel`` of
  ``k_eps_kernel`` on ``default_grid`` and ``eigvalsh``, once), and the
  ``kernel_from_symbol`` round trip on ``ROUNDTRIP_T`` for each eps in
  ``ROUNDTRIP_EPS``;
- the import of the package, the set-up cost of every ``specdiff`` command:
  the wall time of a fresh ``python -c "import specdiff.cli"`` (what the
  console script loads) beside a fresh ``python -c "import numpy"``, medians
  over ``IMPORT_PROCESSES`` processes of each, run alternately.

Every case carries cross-checks taken in the same run.  For the nodes: the
largest absolute node and relative weight differences of both rules and of
NumPy's ``leggauss`` from the extended-precision Newton rule
(``gauss_legendre_reference``, with ``np.longdouble``'s epsilon), and of
``gauss_legendre`` from ``leggauss``.  For H: m, the eigenpairs of the
n x n H from ``DiagonalPlusRankOne.eig`` (the kept block's with the
deflated (x_j, e_j)) against the dense ones (largest eigenvalue and
P = Q∘Q differences), their largest column residual
|x∘q_k + c u (u^T q_k) - w_k q_k|, which holds the coupling the block
drops, and their orthogonality defect max|Q^T Q - I|.  For D_eps: m, the
largest relative trace error against the dense spectrum, the largest |theta - y|
between the Ritz values and the dense eigenvalues with |y| > 1e-6, matched
from the outside in on each side, the counts in the default window (0.4, 1)
by both routes, the block width and the certificate remainder R = Tr D^2
minus the sum of theta^2.  For K_eps: the grid sizes of both routes, the
largest relative difference between their traces over ``HANKEL_POWERS``,
the largest relative error of the m = 1, 2 traces against their closed
forms, and the round trip's sup error against ``k_eps_kernel``.  For the
import: the number of SciPy modules a fresh ``import specdiff.cli`` loads, which
is 0 (the package runs on NumPy alone; SciPy is a test oracle).  The machine
block records the core count, the BLAS NumPy was built with and the BLAS
thread setting.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (800, 1500, 4000)
COUPLINGS = (0.5, -0.7)
EPSILONS = (0.1, 0.01, 3e-3)
REPEATS = 3
D_EPS_REPEATS = 15  # the traces and block pass cost under 0.05 s each at n = 4000
HANKEL_REPEATS = 15  # the K_eps trace pass and the round trip cost under 0.05 s each
HANKEL_EPS = (1e-2, 1e-12, 21)  # geomspace arguments, as hankel-deep's unjittered grid
HANKEL_POWERS = (1, 2, 3, 4, 6)
ROUNDTRIP_T = (0.1, 10.0, 40)  # linspace arguments
ROUNDTRIP_EPS = (0.5, 0.1)
IMPORT_PROCESSES = 15  # fresh interpreters per import timing


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


def nodes_case(n: int, repeats: int) -> dict:
    """Gauss-Legendre rule timings (medians over ``repeats``) and cross-checks of one n."""
    import numpy as np
    from scipy import special

    from specdiff.quadrature import gauss_legendre, gauss_legendre_reference

    rules = {"gauss_legendre": gauss_legendre, "roots_legendre": special.roots_legendre}
    times = {name: [] for name in rules}
    computed = {}
    for _ in range(repeats):
        for name, rule in rules.items():
            t0 = time.perf_counter()
            computed[name] = rule(n)
            times[name].append(time.perf_counter() - t0)
    computed["leggauss"] = np.polynomial.legendre.leggauss(n)

    def differences(rule, reference):
        (x, w), (x_ref, w_ref) = rule, reference
        return {"max_abs_nodes": float(np.max(np.abs(x - x_ref))),
                "max_rel_weights": float(np.max(np.abs(w / w_ref - 1)))}

    reference = gauss_legendre_reference(n)
    med = {f"{name}_s": statistics.median(values) for name, values in times.items()}
    return {
        "n": n,
        **med,
        "speedup": med["roots_legendre_s"] / med["gauss_legendre_s"],
        "cross_checks": {
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            **{f"{name}_minus_reference": differences(rule, reference)
               for name, rule in computed.items()},
            "gauss_legendre_minus_leggauss": differences(computed["gauss_legendre"],
                                                         computed["leggauss"]),
        },
    }


def h_case(n: int, c: float, repeats: int) -> dict:
    """H eigensolve timings (medians over ``repeats`` fresh models) and cross-checks of one (n, c)."""
    import numpy as np

    from specdiff.models import RankOneModel

    times = {key: [] for key in ("assembly_s", "eigh_s", "reconstruction_s",
                                 "split_s", "solve_and_check_s", "check_s", "overlaps_s",
                                 "start_block_s")}
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
        model.rank_one.block(model.rank_one.kept())
        t5 = time.perf_counter()
        w, q = model.eig()
        t6 = time.perf_counter()
        model.block.check(w, q)
        t7 = time.perf_counter()
        model.overlaps()
        t8 = time.perf_counter()
        model.start_block()
        t9 = time.perf_counter()
        for key, dt in zip(times, (t1 - t0, t2 - t1, t3 - t2, t5 - t4, t6 - t5, t7 - t6, t8 - t7,
                                   t9 - t8)):
            times[key].append(dt)

    fresh = RankOneModel(n=n, c=c)  # the peak is traced apart from the timings
    tracemalloc.start()
    fresh.eig()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del fresh

    med = {key: statistics.median(values) for key, values in times.items()}
    dense_s = med["assembly_s"] + med["eigh_s"] + med["reconstruction_s"]
    w_full, q_full = model.rank_one.eig()
    return {
        "n": n,
        "c": c,
        "m": int(model.kept.size),
        "dense": {"assembly_s": med["assembly_s"], "eigh_s": med["eigh_s"],
                  "reconstruction_s": med["reconstruction_s"], "total_s": dense_s},
        "secular": {"split_s": med["split_s"], "solve_and_check_s": med["solve_and_check_s"],
                    "check_s": med["check_s"], "eig_peak_bytes": peak,
                    "eig_peak_block_arrays": peak / (8.0 * model.kept.size ** 2)},
        "overlaps_s": med["overlaps_s"],
        "start_block_s": med["start_block_s"],
        "speedup": dense_s / (med["split_s"] + med["solve_and_check_s"]),
        "cross_checks": {
            "max_abs_w_minus_dense": float(np.max(np.abs(w_full - w_dense))),
            "max_abs_p_minus_dense": float(np.max(np.abs(q_full * q_full - p_dense))),
            "max_column_residual": model.rank_one.residual(w_full, q_full),
            "orthogonality_defect": float(np.max(np.abs(q_full.T @ q_full - np.eye(n)))),
            "dense_reconstruction_residual": reconstruction,
            "entry_scale": scale,
        },
    }


def spectrum_case(model, eps: float, repeats: int, dense_repeats: int) -> dict:
    """D_eps timings and cross-checks of one eps.

    The traces and the block pass are medians over ``repeats`` fresh D_eps,
    the dense route over the first ``dense_repeats`` of them.
    """
    import numpy as np

    from specdiff.experiments import count_window
    from specdiff.profiles import builtin_profile

    psi = builtin_profile("ARCTAN_HALF")
    w_h, q_h = model.h.eig()  # the dense oracle's H, solved once per model
    times = {"traces_s": [], "block_pass_s": [], "dense_s": []}
    for run in range(repeats):
        d = model.build_d_eps(psi, eps, 0.0)
        t0 = time.perf_counter()
        traces = [d.trace_power(k) for k in (1, 2, 3)]
        t1 = time.perf_counter()
        theta = d.window_eigenvalues(0.4)
        t2 = time.perf_counter()
        times["traces_s"].append(t1 - t0)
        times["block_pass_s"].append(t2 - t1)
        if run < dense_repeats:
            dense = (q_h * psi(w_h / eps)) @ q_h.T
            dense[np.diag_indices(model.n)] -= psi(model.nodes / eps)
            y = np.linalg.eigvalsh(dense)
            times["dense_s"].append(time.perf_counter() - t2)
            del dense

    med = {key: statistics.median(values) for key, values in times.items()}
    top, bottom = int(np.count_nonzero(y > 1e-6)), int(np.count_nonzero(y < -1e-6))
    differences = np.concatenate((theta[theta.size - top:] - y[y.size - top:],
                                  theta[:bottom] - y[:bottom]))
    trace_errors = [abs(t - float(np.sum(y ** float(k)))) / float(np.sum(np.abs(y) ** k))
                    for k, t in zip((1, 2, 3), traces)]
    return {
        "n": model.n,
        "m": d.dim,
        "eps": eps,
        **med,
        "speedup": med["dense_s"] / (med["traces_s"] + med["block_pass_s"]),
        "cross_checks": {
            "max_relative_trace_error": max(trace_errors),
            "max_abs_theta_minus_dense": float(np.max(np.abs(differences), initial=0.0)),
            "retained_eigenvalues": top + bottom,
            "count_block_pass": count_window(theta, (0.4, 1.0)),
            "count_dense": count_window(y, (0.4, 1.0)),
            "block_width": int(theta.size),
            "remainder": d.trace_power(2) - float(theta @ theta),
        },
    }


def k_eps_traces_case(repeats: int) -> dict:
    """Timings (medians over ``repeats``) and cross-checks of the K_eps trace pass."""
    import numpy as np

    from specdiff.hankel import (default_grid, discretize_hankel, k_eps_kernel,
                                 k_eps_trace_exact, k_eps_trace_slopes)

    eps_values = np.geomspace(*HANKEL_EPS)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = k_eps_trace_slopes(HANKEL_POWERS, eps_values)
        times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    nystrom_sizes, nystrom = [], {m: [] for m in HANKEL_POWERS}
    for eps in res.eps:
        grid = default_grid(eps)
        nystrom_sizes.append(grid.size)
        w = np.linalg.eigvalsh(discretize_hankel(partial(k_eps_kernel, eps=eps), grid).entries)
        for m in HANKEL_POWERS:
            nystrom[m].append(float(np.sum(w ** float(m))))
    nystrom_s = time.perf_counter() - t0

    section_s = statistics.median(times)
    difference = max(float(np.max(np.abs(res.traces[m] / np.array(nystrom[m]) - 1)))
                     for m in HANKEL_POWERS)
    closed_form = max(abs(res.traces[m][i] / k_eps_trace_exact(eps, m) - 1)
                      for m in (1, 2) for i, eps in enumerate(res.eps))
    return {
        "eps": [float(res.eps[0]), float(res.eps[-1]), int(res.eps.size)],
        "powers": list(HANKEL_POWERS),
        "section_s": section_s,
        "nystrom_s": nystrom_s,
        "speedup": nystrom_s / section_s,
        "section_sizes": [int(res.grid_sizes.min()), int(res.grid_sizes.max())],
        "nystrom_sizes": [min(nystrom_sizes), max(nystrom_sizes)],
        "cross_checks": {
            "max_relative_trace_difference": difference,
            "max_relative_closed_form_error": closed_form,
        },
    }


def roundtrip_case(repeats: int) -> dict:
    """Timings (medians over ``repeats``) and sup error of the kernel_from_symbol round trip."""
    import numpy as np

    from specdiff.hankel import k_eps_kernel, kernel_from_symbol
    from specdiff.profiles import zeta, zeta_eps

    t = np.linspace(*ROUNDTRIP_T)
    symbols = {eps: (lambda x, e=eps: zeta_eps(x, e) - zeta(x)) for eps in ROUNDTRIP_EPS}
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        recovered = {eps: kernel_from_symbol(omega, t) for eps, omega in symbols.items()}
        times.append(time.perf_counter() - t0)
    return {
        "t": list(ROUNDTRIP_T),
        "eps": list(ROUNDTRIP_EPS),
        "round_trip_s": statistics.median(times),
        "cross_checks": {
            "max_abs_error": max(float(np.max(np.abs(k - k_eps_kernel(t, eps))))
                                 for eps, k in recovered.items()),
        },
    }


def import_case(processes: int) -> dict:
    """Medians over ``processes`` fresh interpreters of the import of specdiff.cli and of NumPy."""
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def python(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        return time.perf_counter() - t0, out

    times = {"numpy_s": [], "specdiff_s": []}
    for _ in range(processes):
        times["numpy_s"].append(python("import numpy")[0])
        times["specdiff_s"].append(python("import specdiff.cli")[0])
    loaded = python("import sys, specdiff.cli; "
                    "print(sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")[1]
    return {
        "processes": processes,
        **{key: statistics.median(values) for key, values in times.items()},
        "cross_checks": {"scipy_modules_loaded": int(loaded)},
    }


def main(argv=None) -> int:
    import numpy as np

    from specdiff.models import RankOneModel

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_layers.json"))
    args = parser.parse_args(argv)
    np.linalg.eigh(np.diag(np.arange(64.0)))  # LAPACK's first-call set-up stays out of the timings
    nodes_cases, h_cases, spectrum_cases = [], [], []
    for n in SIZES:
        row = nodes_case(n, REPEATS)
        nodes_cases.append(row)
        print(f"nodes n={n:5d}  gauss_legendre {1e3 * row['gauss_legendre_s']:.2f} ms  "
              f"roots_legendre {row['roots_legendre_s']:.3f} s  x{row['speedup']:.0f}",
              file=sys.stderr)
        for c in COUPLINGS:
            row = h_case(n, c, REPEATS)
            h_cases.append(row)
            secular = row["secular"]["split_s"] + row["secular"]["solve_and_check_s"]
            print(f"H     n={n:5d} c={c:+.2f} m={row['m']:5d}  "
                  f"dense {row['dense']['total_s']:.3f} s  secular {secular:.3f} s  "
                  f"x{row['speedup']:.1f}  eig peak "
                  f"{row['secular']['eig_peak_bytes'] / 2**20:.1f} MiB", file=sys.stderr)
        model = RankOneModel(n=n, c=0.5)
        model.overlaps()
        for eps in EPSILONS:
            row = spectrum_case(model, eps, D_EPS_REPEATS, REPEATS)
            spectrum_cases.append(row)
            print(f"D_eps n={n:5d} m={row['m']:5d} eps={eps:<6g}  dense {row['dense_s']:.3f} s  "
                  f"traces {row['traces_s']:.4f} s  "
                  f"block pass {1e3 * row['block_pass_s']:.2f} ms  x{row['speedup']:.1f}",
                  file=sys.stderr)
        del model
    traces = k_eps_traces_case(HANKEL_REPEATS)
    print(f"K_eps traces {traces['eps'][2]} eps  section {1e3 * traces['section_s']:.1f} ms  "
          f"Nystrom {traces['nystrom_s']:.3f} s  x{traces['speedup']:.0f}  worst difference "
          f"{traces['cross_checks']['max_relative_trace_difference']:.1e}", file=sys.stderr)
    roundtrip = roundtrip_case(HANKEL_REPEATS)
    print(f"kernel_from_symbol  {1e3 * roundtrip['round_trip_s']:.1f} ms  sup error "
          f"{roundtrip['cross_checks']['max_abs_error']:.1e}", file=sys.stderr)
    imports = import_case(IMPORT_PROCESSES)
    print(f"import  numpy {imports['numpy_s']:.3f} s  specdiff {imports['specdiff_s']:.3f} s  "
          f"SciPy modules loaded: {imports['cross_checks']['scipy_modules_loaded']}",
          file=sys.stderr)
    payload = {
        "benchmark": "layers",
        "command": ["python3", "bench/layers.py", *(argv if argv is not None else sys.argv[1:])],
        "repeats": REPEATS,
        "d_eps_repeats": D_EPS_REPEATS,
        "hankel_repeats": HANKEL_REPEATS,
        "machine": machine(),
        "gauss_legendre_nodes": nodes_cases,
        "h_eigensolve": h_cases,
        "d_eps_spectrum": spectrum_cases,
        "k_eps_traces": traces,
        "kernel_from_symbol": roundtrip,
        "import": imports,
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

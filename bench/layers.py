"""Time the package's own layers of a sweep and of K_eps; write BENCH_layers.json.

    python3 bench/layers.py [--output BENCH_layers.json]

Run from the root of a checkout; the package is imported from ``src/``.
BLAS threads are pinned to the number of usable cores before NumPy loads.
Only routes the package runs are timed; each oracle they are checked
against runs once per case, untimed.  For each n in ``SIZES`` of the
default rank-one model (gaussian bump, L = 8) it times, as medians over
``REPEATS`` runs (``D_EPS_REPEATS`` for the fast D_eps layers):

- the Gauss-Legendre rule every model is built on,
  ``specdiff.quadrature.gauss_legendre`` (Bogaert's O(n) formulas);
- for each c in ``COUPLINGS``, on fresh models: the build of a
  ``RankOneModel`` (the rule, the check of the integral of v^2, u and the
  split), the split into the kept block alone (``kept`` and ``block``, with
  its O(n) dropped-coupling bound), the secular root iteration
  ``matrices._secular_roots`` of the kept block alone, the block's ``eig``
  (the secular solve of the m x m kept block plus its O(m^2) check), the
  check alone, and the block pass's start (Ω, Q^T Ω) of
  ``SpectralDifference.start_block``, which ``SpectralDifference.fill``
  draws once per call that runs a block pass;
  and, on one more fresh model, the tracemalloc peak of the block's ``eig``;
- at c = 0.5, lam = 0 and ARCTAN_HALF, for each eps in ``EPSILONS``, over
  ``D_EPS_REPEATS`` fresh D_eps on the kept block (one run in several can
  take ten times the others): the traces of D, D^2 and D^3 from Q, and the
  block pass of ``SpectralDifference.window_eigenvalues`` at the default
  window's threshold 0.4 (its start, Q^T Ω included, and two products with
  Q per block; Tr D^2 is taken before the clock starts, as a sweep does);
- at c = 0.5, lam = 0 and ARCTAN_HALF, over ``D_EPS_REPEATS`` sets of fresh
  D_eps, one for each of the default sweep's 8 eps (``BATCH_EPS``): the
  batched pass ``SpectralDifference.fill`` that a sweep makes, its traces
  (one pass over Q for all 8) and its first block passes (two eps per
  product with Q, orthonormalized by shifted CholeskyQR3), timed apart;
- for ``K_eps`` (no rank-one model), over ``HANKEL_REPEATS`` runs: the trace
  pass of ``k_eps_trace_slopes`` over ``HANKEL_EPS`` (the Carleman section
  on ``section_grid``, its traces from matrix products), the Laplace step
  of ``hankel-deep`` for each eps in ``NYSTROM_EPS`` (``default_grid``, the
  Nystrom matrix ``discretize_hankel`` of ``k_eps_kernel``, its
  ``eigenvalues``, ``default_laplace_grid`` and ``laplace_section``), and
  the ``kernel_from_symbol`` round trip on ``ROUNDTRIP_T`` for each eps in
  ``ROUNDTRIP_EPS``;
- the set-up cost of every ``specdiff`` command: a fresh
  ``python -c "import specdiff.cli"`` (what the console script loads) beside
  a fresh ``python -c "import numpy"``, medians over ``IMPORT_PROCESSES``
  processes of each, run alternately, all reading one bytecode cache (a
  ``PYTHONPYCACHEPREFIX`` in a temporary directory, written by one untimed
  import first), so that no run times the compiler.

The cross-checks, taken in the same run.  Nodes: the largest node and
relative weight differences of ``gauss_legendre`` and of NumPy's
``leggauss`` from the extended-precision Newton rule
(``gauss_legendre_reference``; ``np.longdouble``'s epsilon is recorded),
and of ``gauss_legendre`` from ``leggauss``.  H: m; the largest difference
of the block's eigenvalues, with the deflated nodes' x_j, from the dense
``numpy.linalg.eigh`` of H, solved once per (n, c) with its reconstruction
residual; and, on the m x m kept block, the largest P difference from the
dense ``eigh`` of the block, the largest column residual
|x∘q_k + c u (u^T q_k) - w_k q_k|, the orthogonality defect
max|Q^T Q - I|, and the largest deviations from 1 of the column sums
sum_i Q_ij^2 and of the row sums sum_j Q_ij^2 of Q∘Q, which the traces of
D_eps take to be 1.  D_eps: m, and against
the dense ``eigvalsh`` of the n x n D_eps from the dense H, once per
(n, eps): the largest relative trace error, the largest |theta - y| over
the dense eigenvalues with |y| > 1e-6, matched from the outside in on each
side, the same over the Ritz values the window at 0.4 reads, and the counts
in (0.4, 1) by both routes; then the block width, the certificate
remainder R = Tr D^2 minus the sum of theta^2, and the bound the
certificate puts on the read Ritz values, R / (2 rho) with R clamped at 0
and raised by its rounding allowance 8 eps (||f||^2 + ||g||^2), rho the
smallest read |theta|; and the cancellation-free Tr D^2 =
sum_ij Q_ij^2 (f_j - g_i)^2, untimed, with the ratio of the package's Tr
D^2 error to that allowance.  Batched D_eps:
the largest orthogonality defect max|V^T V - I| of the 8 first blocks; the
largest |theta - y| against the dense ``eigvalsh`` of each D on the kept
block, over the eigenvalues with |y| > 1e-6, matched from the outside in,
and over the Ritz values the window at 0.4 reads; and, against a per-eps
reference kept here (the traces by row sums of Q∘Q one eps at a time, the
first block orthonormalized by Householder QR), the largest relative trace
difference and the largest |theta| difference over those eigenvalues and
over the read Ritz values; and the largest relative error of Tr D^4 and Tr
D^6 (``HIGH_POWERS``, summed from the Ritz values, whose own certificate
may widen the block) against the dense spectrum.
K_eps: the
grid sizes of the section and of the t-grid Nystrom route
(``discretize_hankel`` of ``k_eps_kernel`` on ``default_grid`` and
``eigvalsh``, once), the largest relative difference of their traces over
``HANKEL_POWERS``, the largest relative difference of the section traces,
which come from matrix products, from the sums of powers of the section's
``eigvalsh``, the largest relative error of the m = 1, 2 traces from
their closed forms, and the round trip's sup error against
``k_eps_kernel``.  Laplace step: the t-grid sizes, the largest relative
error of the Nystrom Tr K and Tr K^2 from their closed forms, the largest
reconstruction error max|K - L^T L / pi| and the smallest eigenvalue of K.
Import: the number of SciPy modules a fresh ``import specdiff.cli`` loads,
0.  The machine block records the core count, the BLAS NumPy was built with,
the BLAS thread setting, and the bytecode variables ``BYTECODE_VARS`` of the
environment the script runs in.
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
BYTECODE_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
SIZES = (800, 1500, 4000)
COUPLINGS = (0.5, -0.7)
EPSILONS = (0.1, 0.01, 3e-3)
REPEATS = 3
D_EPS_REPEATS = 15  # the traces and block pass cost under 0.05 s each at n = 4000
BATCH_EPS = (1e-1, 3e-3, 8)  # geomspace arguments, the default sweep's eps grid
HIGH_POWERS = (4, 6)  # powers of D_eps whose traces come from the Ritz values
HANKEL_REPEATS = 15  # the K_eps trace pass and the round trip cost under 0.05 s each
HANKEL_EPS = (1e-2, 1e-12, 21)  # geomspace arguments, as hankel-deep's unjittered grid
HANKEL_POWERS = (1, 2, 3, 4, 6)
NYSTROM_EPS = (1e-2, 1e-3)  # hankel-deep's Laplace step
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
        "bytecode": {var: os.environ.get(var) for var in BYTECODE_VARS},
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def nodes_case(n: int, repeats: int) -> dict:
    """Gauss-Legendre rule timing (median over ``repeats``) and cross-checks of one n."""
    import numpy as np

    from specdiff.quadrature import gauss_legendre, gauss_legendre_reference

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        rule = gauss_legendre(n)
        times.append(time.perf_counter() - t0)
    leggauss = np.polynomial.legendre.leggauss(n)
    reference = gauss_legendre_reference(n)

    def differences(rule, reference):
        (x, w), (x_ref, w_ref) = rule, reference
        return {"max_abs_nodes": float(np.max(np.abs(x - x_ref))),
                "max_rel_weights": float(np.max(np.abs(w / w_ref - 1)))}

    return {
        "n": n,
        "gauss_legendre_s": statistics.median(times),
        "cross_checks": {
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "gauss_legendre_minus_reference": differences(rule, reference),
            "leggauss_minus_reference": differences(leggauss, reference),
            "gauss_legendre_minus_leggauss": differences(rule, leggauss),
        },
    }


def secular_input(block) -> tuple[np.ndarray, np.ndarray]:
    """The (d, z) of diag(d) + z z^T that ``block.eig`` hands the secular solve."""
    import numpy as np

    x, u, c = block.x, block.u, block.c
    if c > 0.0:
        return x, np.sqrt(c) * u
    return -x[::-1], np.sqrt(-c) * u[::-1]


def h_case(model, dense, repeats: int) -> dict:
    """H assembly and eigensolve timings (medians over ``repeats`` fresh models) of one (n, c).

    ``model`` is the default model at that (n, c) and ``dense`` the oracle's
    ``numpy.linalg.eigh`` of its dense H; the dense ``eigh`` of the kept
    block, the oracle of its eigenvectors, is taken here, untimed.
    """
    import numpy as np

    from specdiff.matrices import SpectralDifference, _secular_roots
    from specdiff.models import RankOneModel

    n, c = model.n, model.c
    times = {key: [] for key in ("build_s", "split_s", "roots_s", "solve_and_check_s",
                                 "check_s", "start_s")}
    for _ in range(repeats):
        t0 = time.perf_counter()
        fresh = RankOneModel(n=n, c=c)
        t1 = time.perf_counter()
        fresh.rank_one.block(fresh.rank_one.kept())
        t2 = time.perf_counter()
        _secular_roots(*secular_input(fresh.block))
        t3 = time.perf_counter()
        w, q = fresh.block.eig()
        t4 = time.perf_counter()
        fresh.block.check(w, q)
        t5 = time.perf_counter()
        SpectralDifference.start_block(q)
        t6 = time.perf_counter()
        for key, dt in zip(times, np.diff([t0, t1, t2, t3, t4, t5, t6])):
            times[key].append(float(dt))

    traced = RankOneModel(n=n, c=c)  # the peak is traced apart from the timings
    tracemalloc.start()
    traced.block.eig()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    del traced

    a, (w_dense, q_dense) = model.h.entries, dense
    w_block, q_block = np.linalg.eigh(fresh.block.entries)
    p = q * q
    # the deflated nodes keep (x_j, e_j): with them, the block's eigenvalues are H's
    w_h = np.sort(np.concatenate((w, np.delete(fresh.nodes, fresh.kept))))
    return {
        "n": n,
        "c": c,
        "m": int(fresh.kept.size),
        **{key: statistics.median(values) for key, values in times.items()},
        "eig_peak_bytes": peak,
        "eig_peak_block_arrays": peak / (8.0 * fresh.kept.size ** 2),
        "cross_checks": {
            "max_abs_w_minus_dense": float(np.max(np.abs(w_h - w_dense))),
            "max_abs_p_minus_dense": float(np.max(np.abs(p - q_block * q_block))),
            "max_column_residual": fresh.block.residual(w, q),
            "orthogonality_defect": float(np.max(np.abs(q.T @ q - np.eye(q.shape[1])))),
            "p_column_sum_defect": float(np.max(np.abs(np.sum(p, axis=0) - 1.0))),
            "p_row_sum_defect": float(np.max(np.abs(np.sum(p, axis=1) - 1.0))),
            "dense_reconstruction_residual":
                float(np.max(np.abs((q_dense * w_dense) @ q_dense.T - a))),
            "entry_scale": max(1.0, float(np.max(np.abs(a)))),
        },
    }


def spectrum_case(model, dense, eps: float, repeats: int) -> dict:
    """D_eps timings (medians over ``repeats`` fresh D_eps) and cross-checks of one eps.

    ``dense`` is the oracle's ``numpy.linalg.eigh`` of the model's dense H.
    """
    import numpy as np

    from specdiff.experiments import count_window
    from specdiff.profiles import builtin_profile

    psi = builtin_profile("ARCTAN_HALF")
    times = {"traces_s": [], "block_pass_s": []}
    for _ in range(repeats):
        d = model.build_d_eps(psi, eps, 0.0)
        t0 = time.perf_counter()
        traces = [d.trace_power(k) for k in (1, 2, 3)]
        t1 = time.perf_counter()
        theta = d.window_eigenvalues(0.4)
        t2 = time.perf_counter()
        times["traces_s"].append(t1 - t0)
        times["block_pass_s"].append(t2 - t1)

    w_h, q_h = dense
    oracle = (q_h * psi(w_h / eps)) @ q_h.T
    oracle[np.diag_indices(model.n)] -= psi(model.nodes / eps)
    y = np.linalg.eigvalsh(oracle)
    del oracle
    top, bottom = int(np.count_nonzero(y > 1e-6)), int(np.count_nonzero(y < -1e-6))
    differences = np.concatenate((theta[theta.size - top:] - y[y.size - top:],
                                  theta[:bottom] - y[:bottom]))
    trace_errors = [abs(t - float(np.sum(y ** float(k)))) / float(np.sum(np.abs(y) ** k))
                    for k, t in zip((1, 2, 3), traces)]
    read, matched = read_values(theta, y)
    rho = float(np.min(np.abs(read)))
    remainder = d.trace_power(2) - float(theta @ theta)
    allowance = 8.0 * float(np.finfo(float).eps) * float(d.f @ d.f + d.g @ d.g)
    r = max(remainder, 0.0) + allowance
    # every term of sum_ij Q_ij^2 (f_j - g_i)^2 is >= 0: no cancellation
    trace_2 = float(np.sum(d.q * d.q * np.subtract.outer(d.g, d.f) ** 2))
    return {
        "n": model.n,
        "m": d.dim,
        "eps": eps,
        **{key: statistics.median(values) for key, values in times.items()},
        "cross_checks": {
            "max_relative_trace_error": max(trace_errors),
            "max_abs_theta_minus_dense": float(np.max(np.abs(differences), initial=0.0)),
            "max_abs_read_theta_minus_dense": float(np.max(np.abs(read - matched))),
            "retained_eigenvalues": top + bottom,
            "count_block_pass": count_window(theta, (0.4, 1.0)),
            "count_dense": count_window(y, (0.4, 1.0)),
            "block_width": int(theta.size),
            "remainder": remainder,
            "ritz_error_bound": r / (2.0 * rho),
            "trace_2_cancellation_free": trace_2,
            "trace_2_error_over_allowance": abs(d.trace_power(2) - trace_2) / allowance,
        },
    }


def read_values(theta, y) -> tuple[np.ndarray, np.ndarray]:
    """The Ritz values ``theta`` that a window at 0.4 reads, and the ``y`` they match.

    Per side, outermost first, as signed distances (the negative side
    negated): the max(j, 1) + 1 values farthest out, j of them beyond 0.4.
    """
    import numpy as np

    read, matched = [], []
    for out, exact in ((theta[::-1], y[::-1]), (-theta, -y)):
        k = max(int(np.count_nonzero(out > 0.4)), 1) + 1
        read.append(out[:k])
        matched.append(exact[:k])
    return np.concatenate(read), np.concatenate(matched)


def per_eps_reference(d) -> tuple[list[float], np.ndarray]:
    """Traces of D, D^2, D^3 and first-block Ritz values of one D_eps, one eps at a time.

    The route a sweep took before its points were batched: row sums of Q∘Q
    against f and f^2, and the block D Ω orthonormalized by Householder QR.
    """
    import numpy as np

    q, f, g = d.q, d.f, d.g
    omega, s = d.start_block(q)
    pf, pf2 = (np.einsum("ij,ij,j->i", q, q, v) for v in (f, f * f))
    traces = [float(np.sum(f) - np.sum(g)),
              float(np.sum(f * f) + np.sum(g * g) - 2.0 * (g @ pf)),
              float(np.sum(f**3) - np.sum(g**3) - 3.0 * (g @ pf2) + 3.0 * ((g * g) @ pf))]
    v = np.linalg.qr(q @ (f[:, None] * s) - g[:, None] * omega)[0]
    w = q.T @ v
    t = w.T @ (f[:, None] * w) - v.T @ (g[:, None] * v)
    return traces, np.linalg.eigvalsh((t + t.T) / 2.0)


def batch_case(model, repeats: int) -> dict:
    """Timings (medians over ``repeats`` sets of fresh D_eps) and cross-checks of ``fill``.

    The per-eps reference and the dense spectra are taken once, untimed.
    """
    import numpy as np

    from specdiff import matrices
    from specdiff.matrices import SpectralDifference
    from specdiff.profiles import builtin_profile

    psi = builtin_profile("ARCTAN_HALF")
    eps_values = np.geomspace(*BATCH_EPS)
    times = {"traces_s": [], "block_pass_s": []}
    for _ in range(repeats):
        points = [model.build_d_eps(psi, float(eps), 0.0) for eps in eps_values]
        t0 = time.perf_counter()
        SpectralDifference.fill(points, windows=False)
        t1 = time.perf_counter()
        SpectralDifference.fill(points)
        t2 = time.perf_counter()
        times["traces_s"].append(t1 - t0)
        times["block_pass_s"].append(t2 - t1)

    defects, theta_errors, read_errors, trace_differences, widths = [], [], [], [], []
    theta_differences, read_differences, high_trace_errors = [], [], []
    omega, s = SpectralDifference.start_block(points[0].q)
    for d in points:
        y = d.q @ (d.f[:, None] * s) - d.g[:, None] * omega
        v = np.empty_like(y)
        matrices._orthonormalize(y[None], v[None], omega)
        defects.append(float(np.max(np.abs(v.T @ v - np.eye(v.shape[1])))))
        theta = d.window_eigenvalues(0.4)
        widths.append(int(theta.size))
        y_dense = d.eigenvalues()
        top, bottom = int(np.count_nonzero(y_dense > 1e-6)), int(np.count_nonzero(y_dense < -1e-6))

        def outer(values):
            return np.concatenate((values[values.size - top:], values[:bottom]))

        theta_errors.append(float(np.max(np.abs(outer(theta) - outer(y_dense)), initial=0.0)))
        read_errors.append(float(np.max(np.abs(np.subtract(*read_values(theta, y_dense))))))
        traces, theta_qr = per_eps_reference(d)
        trace_differences += [abs(d.trace_power(k) - t) / float(np.sum(np.abs(y_dense) ** k))
                              for k, t in zip((1, 2, 3), traces)]
        theta_differences.append(float(np.max(np.abs(outer(theta) - outer(theta_qr)),
                                              initial=0.0)))
        read_differences.append(float(np.max(np.abs(np.subtract(*read_values(theta, theta_qr))))))
        high_trace_errors += [abs(d.trace_power(k) - float(np.sum(y_dense ** float(k))))
                              / float(np.sum(np.abs(y_dense) ** k)) for k in HIGH_POWERS]
    return {
        "n": model.n,
        "m": points[0].dim,
        "eps": list(BATCH_EPS),
        **{key: statistics.median(values) for key, values in times.items()},
        "cross_checks": {
            "orthogonality_defect": max(defects),
            "max_abs_theta_minus_dense": max(theta_errors),
            "max_abs_read_theta_minus_dense": max(read_errors),
            "block_widths": sorted(set(widths)),
            "max_relative_trace_difference_from_reference": max(trace_differences),
            "max_abs_theta_minus_reference": max(theta_differences),
            "max_abs_read_theta_minus_reference": max(read_differences),
            "max_relative_high_trace_error": max(high_trace_errors),
        },
    }


def k_eps_traces_case(repeats: int) -> dict:
    """Timing (median over ``repeats``) and cross-checks of the K_eps trace pass.

    The eigenvalues of each section matrix and the t-grid Nystrom traces it
    is checked against are taken once, untimed.
    """
    import numpy as np

    from specdiff.hankel import (default_grid, discretize_hankel, k_eps_kernel,
                                 k_eps_trace_exact, k_eps_trace_slopes, section_grid)

    eps_values = np.geomspace(*HANKEL_EPS)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = k_eps_trace_slopes(HANKEL_POWERS, eps_values)
        times.append(time.perf_counter() - t0)
    nystrom_grid_sizes, nystrom = [], {m: [] for m in HANKEL_POWERS}
    eigenvalue_route = {m: [] for m in HANKEL_POWERS}
    for eps in res.eps:
        carleman = discretize_hankel(lambda s: 1.0 / (np.pi * s), section_grid(eps))
        w = np.linalg.eigvalsh(carleman.entries)
        for m in HANKEL_POWERS:
            eigenvalue_route[m].append(float(np.sum(w ** float(m))))
        grid = default_grid(eps)
        nystrom_grid_sizes.append(grid.size)
        w = np.linalg.eigvalsh(discretize_hankel(partial(k_eps_kernel, eps=eps), grid).entries)
        for m in HANKEL_POWERS:
            nystrom[m].append(float(np.sum(w ** float(m))))

    def largest_relative_difference(reference):
        return max(float(np.max(np.abs(res.traces[m] / np.array(reference[m]) - 1)))
                   for m in HANKEL_POWERS)

    closed_form = max(abs(res.traces[m][i] / k_eps_trace_exact(eps, m) - 1)
                      for m in (1, 2) for i, eps in enumerate(res.eps))
    return {
        "eps": [float(res.eps[0]), float(res.eps[-1]), int(res.eps.size)],
        "powers": list(HANKEL_POWERS),
        "section_s": statistics.median(times),
        "section_sizes": [int(res.grid_sizes.min()), int(res.grid_sizes.max())],
        "nystrom_grid_sizes": [min(nystrom_grid_sizes), max(nystrom_grid_sizes)],
        "cross_checks": {
            "max_relative_difference_from_eigenvalues": largest_relative_difference(
                eigenvalue_route),
            "max_relative_trace_difference": largest_relative_difference(nystrom),
            "max_relative_closed_form_error": closed_form,
        },
    }


def k_eps_nystrom_case(repeats: int) -> dict:
    """Timings (medians over ``repeats``) and cross-checks of the t-grid Laplace step.

    Each timing is summed over ``NYSTROM_EPS``; the cross-checks are taken
    once, untimed, on the last run's matrices and eigenvalues.
    """
    import numpy as np

    from specdiff.hankel import (default_grid, default_laplace_grid, discretize_hankel,
                                 k_eps_kernel, k_eps_trace_exact, laplace_section)

    times = {key: [] for key in ("grid_s", "discretize_s", "eigenvalues_s", "laplace_section_s")}
    for _ in range(repeats):
        spent = dict.fromkeys(times, 0.0)
        steps = []
        for eps in NYSTROM_EPS:
            t0 = time.perf_counter()
            grid = default_grid(eps)
            t1 = time.perf_counter()
            k = discretize_hankel(partial(k_eps_kernel, eps=eps), grid)
            t2 = time.perf_counter()
            w = k.eigenvalues()
            t3 = time.perf_counter()
            section = laplace_section(eps, grid, default_laplace_grid(eps))
            t4 = time.perf_counter()
            for key, dt in zip(spent, np.diff([t0, t1, t2, t3, t4])):
                spent[key] += float(dt)
            steps.append((eps, k, w, section))
        for key, dt in spent.items():
            times[key].append(dt)
    totals = [sum(run) for run in zip(*times.values())]
    closed_form = max(abs(float(np.sum(w ** float(m))) / k_eps_trace_exact(eps, m) - 1)
                      for eps, _, w, _ in steps for m in (1, 2))
    reconstruction = max(
        float(np.max(np.abs(k.entries - section.entries.T @ section.entries / np.pi)))
        for _, k, _, section in steps)
    return {
        "eps": list(NYSTROM_EPS),
        "grid_sizes": [w.size for _, _, w, _ in steps],
        "laplace_step_s": statistics.median(totals),
        **{key: statistics.median(values) for key, values in times.items()},
        "cross_checks": {
            "max_relative_closed_form_error": closed_form,
            "max_reconstruction_error": reconstruction,
            "min_eigenvalue": min(float(w[0]) for _, _, w, _ in steps),
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
    """Medians over ``processes`` fresh interpreters of the import of specdiff.cli and of NumPy.

    The interpreters share a bytecode cache in a temporary directory, which
    one untimed import of specdiff.cli (and so of NumPy) writes first.
    """
    import subprocess
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the untimed import must write the cache

    def python(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        return time.perf_counter() - t0, out

    times = {"numpy_s": [], "specdiff_s": []}
    with tempfile.TemporaryDirectory() as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        python("import specdiff.cli")
        for _ in range(processes):
            times["numpy_s"].append(python("import numpy")[0])
            times["specdiff_s"].append(python("import specdiff.cli")[0])
        loaded = python("import sys, specdiff.cli; print(sum(m == 'scipy' or "
                        "m.startswith('scipy.') for m in sys.modules))")[1]
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
    nodes_cases, h_cases, spectrum_cases, batch_cases = [], [], [], []
    for n in SIZES:
        row = nodes_case(n, REPEATS)
        nodes_cases.append(row)
        print(f"nodes n={n:5d}  gauss_legendre {1e3 * row['gauss_legendre_s']:.2f} ms",
              file=sys.stderr)
        for c in COUPLINGS:
            model = RankOneModel(n=n, c=c)
            dense = np.linalg.eigh(model.h.entries)  # the oracle: once per (n, c), untimed
            row = h_case(model, dense, REPEATS)
            h_cases.append(row)
            print(f"H     n={n:5d} c={c:+.2f} m={row['m']:5d}  build {row['build_s']:.3f} s  "
                  f"roots {row['roots_s']:.3f} s  solve and check "
                  f"{row['solve_and_check_s']:.3f} s  eig peak "
                  f"{row['eig_peak_bytes'] / 2**20:.1f} MiB", file=sys.stderr)
            if c == 0.5:
                for eps in EPSILONS:
                    row = spectrum_case(model, dense, eps, D_EPS_REPEATS)
                    spectrum_cases.append(row)
                    print(f"D_eps n={n:5d} m={row['m']:5d} eps={eps:<6g}  "
                          f"traces {row['traces_s']:.4f} s  "
                          f"block pass {1e3 * row['block_pass_s']:.2f} ms", file=sys.stderr)
                row = batch_case(model, D_EPS_REPEATS)
                batch_cases.append(row)
                print(f"batch n={n:5d} m={row['m']:5d} {BATCH_EPS[2]} eps  "
                      f"traces {1e3 * row['traces_s']:.2f} ms  "
                      f"block passes {1e3 * row['block_pass_s']:.2f} ms", file=sys.stderr)
            del model, dense
    traces = k_eps_traces_case(HANKEL_REPEATS)
    print(f"K_eps traces {traces['eps'][2]} eps  section {1e3 * traces['section_s']:.1f} ms  "
          f"worst difference from eigenvalues "
          f"{traces['cross_checks']['max_relative_difference_from_eigenvalues']:.1e}, "
          f"from Nystrom {traces['cross_checks']['max_relative_trace_difference']:.1e}",
          file=sys.stderr)
    nystrom = k_eps_nystrom_case(HANKEL_REPEATS)
    print(f"K_eps Laplace step eps={list(NYSTROM_EPS)} nodes={nystrom['grid_sizes']}  "
          f"{1e3 * nystrom['laplace_step_s']:.1f} ms (eigenvalues "
          f"{1e3 * nystrom['eigenvalues_s']:.1f} ms)  closed-form error "
          f"{nystrom['cross_checks']['max_relative_closed_form_error']:.1e}", file=sys.stderr)
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
        "d_eps_batch": batch_cases,
        "k_eps_traces": traces,
        "k_eps_nystrom": nystrom,
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

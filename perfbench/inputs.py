"""Workload inputs, generated from the seed.

Seed 0 is the unjittered configuration.  Other seeds move the energy lambda
within +-0.25 on the rank-one workloads and the two ends of the eps grid by up
to a quarter decade on ``hankel-deep``.  Everything here is plain JSON data:
the program under test only ever sees these inputs, and the reference process
reads them without importing the package.
"""

from __future__ import annotations

import numpy as np

SWEEP_N = 1500
SCOREBOARD_N = 800
LAMBDA_JITTER = 0.25
EPS_JITTER_DECADES = 0.25

# The model, energy, windows and tolerances of the README's default sweep.
MODEL = {"L": 8.0, "bump": "gaussian", "c": 0.5}
DEFAULT_SWEEP = {
    "profile": "ARCTAN_HALF",
    "eps_start": 1e-1,
    "eps_stop": 3e-3,
    "eps_count": 8,
    "windows": [[0.4, 1.0]],
    "trace_powers": [1, 2, 3],
}
KAPPA = 0.4
TOLERANCE = 0.15
UNIVERSALITY_PROFILES = ["ARCTAN_HALF", "TANH_HALF", "MOLLIFIED_STEP"]


def _jitter(seed: int, size: int) -> np.ndarray:
    if seed == 0:
        return np.zeros(size)
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size)


def _rank_one(workload: str, seed: int, n: int, sweeps: list[dict]) -> dict:
    lam = float(LAMBDA_JITTER * _jitter(seed, 1)[0])
    return {
        "workload": workload,
        "seed": seed,
        "kind": "rank_one",
        "model": dict(MODEL, n=n),
        "lambda": lam,
        "kappa": KAPPA,
        "tolerance": TOLERANCE,
        "sweeps": sweeps,
    }


def sweep_default(seed: int) -> dict:
    return _rank_one("sweep-default", seed, SWEEP_N, [dict(DEFAULT_SWEEP, label="sweep")])


def scoreboard(seed: int) -> dict:
    """The sweeps the acceptance slope fixtures make, in the order they run."""
    base = DEFAULT_SWEEP
    sweeps = [
        dict(base, label="trace_formula"),
        dict(base, label="extended", eps_stop=base["eps_stop"] / 10.0, eps_count=13),
        dict(base, label="symmetry", windows=[[0.4, None], [None, -0.4]]),
    ]
    sweeps += [dict(base, label=f"universality-{p}", profile=p) for p in UNIVERSALITY_PROFILES]
    return _rank_one("scoreboard-n800", seed, SCOREBOARD_N, sweeps)


def hankel_deep(seed: int) -> dict:
    shift = EPS_JITTER_DECADES * _jitter(seed, 2)
    eps = np.geomspace(1e-2 * 10.0 ** shift[0], 1e-12 * 10.0 ** shift[1], 21)
    return {
        "workload": "hankel-deep",
        "seed": seed,
        "kind": "hankel",
        "powers": [1, 2, 3, 4, 6],
        "eps": [float(e) for e in eps],
        "roundtrip_t": [float(t) for t in np.linspace(0.1, 10.0, 40)],
        "roundtrip_eps": [0.5, 0.1],
        "laplace_eps": [1e-2, 1e-3],
    }


WORKLOADS = {
    "sweep-default": sweep_default,
    "scoreboard-n800": scoreboard,
    "hankel-deep": hankel_deep,
}


def make_inputs(workload: str, seed: int) -> dict:
    return WORKLOADS[workload](int(seed))


def window_bounds(window) -> tuple[float, float]:
    """A JSON window, with null for an unbounded side, as a float pair."""
    lo, hi = window
    return (-np.inf if lo is None else float(lo), np.inf if hi is None else float(hi))


def window_key(window) -> str:
    """The key the sweep outputs use for a window, e.g. ``(0.4,inf)``."""
    lo, hi = window_bounds(window)
    return f"({lo:g},{hi:g})"

"""Spans around the public entry points of each specdiff module.

The wrappers are installed from here, on module and class attributes, for
the length of one traced pass; the package itself carries no timing code.
A span's busy time is its duration, its self time the duration minus that of
its child spans.  A span is not reopened inside a span of the same name
(``delta_m`` calls ``sech_moment``, ``default_grid`` calls
``geometric_panel_grid``), so busy times never count an interval twice.
Spans stay in memory; ``metrics`` reduces them when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

from specdiff import cli, density, experiments, hankel, matrices, models, report


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list[list[float]] = []  # [start, time covered by child spans]
        self._open: set[str] = set()

    def call(self, name: str, fn, *args, **kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        self._open.add(name)
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self._open.discard(name)
            self.busy[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def wrap(self, name: str, fn, when=None):
        """``fn`` inside a span; with ``when``, only calls where ``when(*args)`` holds."""

        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


@contextlib.contextmanager
def _patched(patches):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install every span for the duration of the block."""
    sam = matrices.SelfAdjointMatrix
    model = models.RankOneModel

    def init_matrix(self, entries):
        tracer.call("matrices.init", sam_init, self, entries)
        tracer.counts["matrices.dense_bytes"] += self.entries.nbytes

    def profile_lookup(name):
        prof = builtin_profile(name)
        return dataclasses.replace(prof, fn=tracer.wrap("profiles.eval", prof.fn))

    def sweep(*args, **kwargs):
        result = tracer.call("experiments.run_sweep", run_sweep, *args, **kwargs)
        tracer.counts["experiments.points"] += len(result.records)
        tracer.counts["experiments.flagged"] += sum(r.guard_flag for r in result.records)
        return result

    def discretize(kernel, grid):
        tracer.counts["hankel.grid_points"] += grid.size
        return tracer.call("hankel.discretize", discretize_hankel, kernel, grid)

    sam_init, builtin_profile = sam.__init__, experiments.builtin_profile
    run_sweep, discretize_hankel = experiments.run_sweep, hankel.discretize_hankel
    predict = {f: tracer.wrap("density.predict", getattr(density, f))
               for f in ("band_count_slope", "delta_m", "sech_moment")}
    grids = {f: tracer.wrap("hankel.grid", getattr(hankel, f))
             for f in ("default_grid", "default_laplace_grid",
                       "gauss_legendre_grid", "geometric_panel_grid")}
    render = {f: tracer.wrap("report.render", getattr(report, f))
              for f in ("render_text", "render_svg")}
    studies = {f: tracer.wrap("experiments.studies", getattr(experiments, f))
               for f in ("trace_formula_study", "symmetry_study", "universality_study")}
    patches = [
        (sam, "__init__", init_matrix),
        (sam, "eig", tracer.wrap("matrices.eig", sam.eig, when=lambda a: a._eigvecs is None)),
        (sam, "eigenvalues", tracer.wrap("matrices.eigenvalues", sam.eigenvalues,
                                         when=lambda a: a._eigvals is None)),
        (model, "__init__", tracer.wrap("models.init", model.__init__)),
        (model, "h", property(tracer.wrap("models.h", model.h.fget, when=lambda m: m._h is None))),
        (model, "build_d_eps", tracer.wrap("models.build_d_eps", model.build_d_eps)),
        (model, "scattering_point", tracer.wrap("models.scattering_point", model.scattering_point)),
        (experiments, "builtin_profile", profile_lookup),
        (experiments, "run_sweep", sweep),
        (cli, "run_sweep", sweep),
        (experiments, "slope_fit", tracer.wrap("experiments.slope_fit", experiments.slope_fit)),
        (experiments, "count_window",
         tracer.wrap("experiments.count_window", experiments.count_window)),
        (experiments, "band_count_slope", predict["band_count_slope"]),
        (experiments, "delta_m", predict["delta_m"]),
        (hankel, "sech_moment", predict["sech_moment"]),
        (hankel, "discretize_hankel", discretize),
        (hankel, "kernel_from_symbol",
         tracer.wrap("hankel.kernel_from_symbol", hankel.kernel_from_symbol)),
        (hankel, "laplace_section", tracer.wrap("hankel.laplace_section", hankel.laplace_section)),
        (hankel, "k_eps_trace_slopes",
         tracer.wrap("hankel.trace_slopes", hankel.k_eps_trace_slopes)),
        (hankel.k_eps_trace_slopes, "__defaults__", (grids["default_grid"],)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
    ]
    patches += [(density, f, fn) for f, fn in predict.items()]
    patches += [(hankel, f, fn) for f, fn in grids.items()]
    patches += [(m, f, fn) for f, fn in render.items() for m in (report, cli)]
    patches += [(experiments, f, fn) for f, fn in studies.items()]
    with _patched(patches):
        yield tracer


# (metric name, span or counter, what is read, unit)
LAYER_METRICS = [
    ("matrices.eig.busy_s", "matrices.eig", "busy", "s"),
    ("matrices.eig.calls", "matrices.eig", "calls", "count"),
    ("matrices.eigenvalues.busy_s", "matrices.eigenvalues", "busy", "s"),
    ("matrices.eigenvalues.calls", "matrices.eigenvalues", "calls", "count"),
    ("matrices.init.busy_s", "matrices.init", "busy", "s"),
    ("matrices.dense_bytes", "matrices.dense_bytes", "count", "B"),
    ("models.init.busy_s", "models.init", "busy", "s"),
    ("models.h.busy_s", "models.h", "busy", "s"),
    ("models.build_d_eps.busy_s", "models.build_d_eps", "busy", "s"),
    ("models.build_d_eps.calls", "models.build_d_eps", "calls", "count"),
    ("models.scattering_point.busy_s", "models.scattering_point", "busy", "s"),
    ("profiles.eval.busy_s", "profiles.eval", "busy", "s"),
    ("profiles.eval.calls", "profiles.eval", "calls", "count"),
    ("density.predict.busy_s", "density.predict", "busy", "s"),
    ("hankel.grid.busy_s", "hankel.grid", "busy", "s"),
    ("hankel.discretize.busy_s", "hankel.discretize", "busy", "s"),
    ("hankel.kernel_from_symbol.busy_s", "hankel.kernel_from_symbol", "busy", "s"),
    ("hankel.laplace_section.busy_s", "hankel.laplace_section", "busy", "s"),
    ("hankel.trace_slopes.self_s", "hankel.trace_slopes", "self", "s"),
    ("hankel.grid_points", "hankel.grid_points", "count", "count"),
    ("experiments.run_sweep.self_s", "experiments.run_sweep", "self", "s"),
    ("experiments.studies.self_s", "experiments.studies", "self", "s"),
    ("experiments.slope_fit.busy_s", "experiments.slope_fit", "busy", "s"),
    ("experiments.count_window.busy_s", "experiments.count_window", "busy", "s"),
    ("experiments.points", "experiments.points", "count", "count"),
    ("cli.main.self_s", "cli.main", "self", "s"),
    ("report.render.busy_s", "report.render", "busy", "s"),
]


def metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics, and the share of pass time covered by self times."""
    read = {"busy": tracer.busy, "self": tracer.self_time,
            "calls": tracer.calls, "count": tracer.counts}
    out = {name: read[kind][key] / passes for name, key, kind, _ in LAYER_METRICS}
    points = tracer.counts["experiments.points"]
    out["experiments.guard_flagged_frac"] = (
        tracer.counts["experiments.flagged"] / points if points else 0.0
    )
    out["trace.self_s"] = sum(tracer.self_time.values()) / passes
    return out

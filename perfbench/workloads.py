"""The timed passes of each workload and the checks of their outputs.

A pass is the unit of the closed loop: one caller, and the next pass starts
when the previous one has returned.  Every call into the package goes through
a module attribute (``cli.main``, ``experiments.run_sweep``, ...), so the
traced run can wrap those attributes without touching the package.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from specdiff import cli, experiments, hankel, profiles

from .inputs import window_key

# Tolerances of the checks.  Counts and guard flags must match exactly.
RANK_ONE_RTOL = 1e-9  # traces and fitted slopes against the dense reference
PREDICTION_RTOL = 1e-8  # predicted slopes and xi against the closed forms
HANKEL_RTOL = 1e-6  # K_eps traces and slopes against exact and dense values
ROUNDTRIP_TOL = 1e-6  # sup error of kernel_from_symbol (acceptance criterion 04)
LAPLACE_TOL = 1e-8  # reconstruction error of the Laplace factor (criterion 03)
LAPLACE_FLOOR = -1e-10  # smallest allowed eigenvalue of the discretized K_eps


def close(value, reference, rtol: float) -> bool:
    return abs(float(value) - float(reference)) <= rtol * max(1.0, abs(float(reference)))


class Checks:
    """Named pass/fail results; a check that raises counts as failed.

    ``add`` calls the predicate at once, so predicates may close over loop
    variables.
    """

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, predicate) -> None:
        try:
            ok = bool(predicate())
        except Exception:  # a missing or malformed output is a failed check
            ok = False
        self.results.append((name, ok))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def check_sweep(checks: Checks, label: str, summary, ref: dict) -> None:
    """Compare one sweep summary (``SweepResult.summary_dict()`` form) with the reference."""
    for i, rec in enumerate(ref["records"]):
        got = lambda: summary["records"][i]  # noqa: E731
        checks.add(f"{label}[{i}].epsilon", lambda: close(got()["epsilon"], rec["epsilon"], 1e-12))
        checks.add(f"{label}[{i}].guard_flag", lambda: got()["guard_flag"] == rec["guard_flag"])
        for key, count in rec["counts"].items():
            checks.add(f"{label}[{i}].count {key}", lambda: got()["counts"][key] == count)
        for m, trace in rec["traces"].items():
            checks.add(
                f"{label}[{i}].trace m={m}",
                lambda: close(got()["traces"][m], trace, RANK_ONE_RTOL),
            )
    checks.add(f"{label}.records", lambda: len(summary["records"]) == len(ref["records"]))
    for key, slope in ref["fitted_slopes"].items():
        checks.add(f"{label}.fitted {key}",
                   lambda: close(summary["fitted_slopes"][key], slope, RANK_ONE_RTOL))
    for key, slope in ref["predicted_slopes"].items():
        checks.add(f"{label}.predicted {key}",
                   lambda: close(summary["predicted_slopes"][key], slope, PREDICTION_RTOL))


class SweepDefault:
    """``specdiff sweep`` on the README default config, then ``specdiff report``."""

    name = "sweep-default"

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.stem = workdir / "sweep_out"
        self.config_path = workdir / "sweep.json"
        spec = inputs["sweeps"][0]
        config = {
            "model": inputs["model"],
            "lambda": inputs["lambda"],
            "profiles": [spec["profile"]],
            "epsilon": {"start": spec["eps_start"], "stop": spec["eps_stop"],
                        "count": spec["eps_count"]},
            "windows": spec["windows"],
            "trace_powers": spec["trace_powers"],
            "workers": 1,
            "seed": 0,
            "kappa": inputs["kappa"],
            "tolerance": inputs["tolerance"],
            "output": str(self.stem),
        }
        self.config_path.write_text(json.dumps(config, indent=2))
        self.first_outputs: dict[str, bytes] | None = None

    def run_pass(self):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["sweep", "--config", str(self.config_path)])
            report_code = cli.main(["report", "--input", f"{self.stem}.json",
                                    "--svg", f"{self.stem}.svg"])
        return {"exit_code": code, "report_exit_code": report_code}

    def points(self, outcome) -> int:
        return self.inputs["sweeps"][0]["eps_count"]

    def check(self, outcome, ref: dict) -> Checks:
        checks = Checks()
        sweep = ref["sweeps"]["sweep"]
        checks.add("exit_code", lambda: outcome["exit_code"] == sweep["exit_code"])
        checks.add("report_exit_code", lambda: outcome["report_exit_code"] == 0)
        outputs = {}
        for suffix in ("json", "csv"):
            path = Path(f"{self.stem}.{suffix}")
            with contextlib.suppress(OSError):
                outputs[suffix] = path.read_bytes()
                path.unlink()  # a later pass that writes nothing must not pass on these
        summary = None
        with contextlib.suppress(KeyError, ValueError):
            summary = json.loads(outputs["json"])
        check_sweep(checks, "sweep", summary, sweep)
        rows = None
        with contextlib.suppress(KeyError, UnicodeDecodeError):
            rows = list(csv.reader(io.StringIO(outputs["csv"].decode())))
        expected = [
            [key, str(count), str(int(rec["guard_flag"]))]
            for rec in sweep["records"] for key, count in rec["counts"].items()
        ]
        checks.add("csv rows", lambda: [[r[2], r[3], r[4]] for r in rows[1:]] == expected)
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            for suffix in ("json", "csv"):
                checks.add(f"byte-identical {suffix}",
                           lambda: outputs[suffix] == self.first_outputs[suffix])
        return checks


class Scoreboard:
    """The calls the acceptance slope fixtures make, on one model spec."""

    name = "scoreboard-n800"

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        base = inputs["sweeps"][0]
        self.config = experiments.default_config(
            model=experiments.ModelSpec(**inputs["model"]),
            lam=inputs["lambda"],
            eps_start=base["eps_start"],
            eps_stop=base["eps_stop"],
            eps_count=base["eps_count"],
            windows=tuple(tuple(w) for w in base["windows"]),
            trace_powers=tuple(base["trace_powers"]),
            kappa=inputs["kappa"],
            tolerance=inputs["tolerance"],
        )
        self.profiles = tuple(
            s["profile"] for s in inputs["sweeps"] if s["label"].startswith("universality-")
        )

    def run_pass(self):
        shared = experiments.trace_formula_study(self.config)
        base = shared.result.config
        extended = experiments.run_sweep(replace(base, eps_stop=base.eps_stop / 10.0, eps_count=13))
        symmetry = experiments.symmetry_study(self.config)
        universality = experiments.universality_study(self.config, profiles=self.profiles)
        results = {
            "trace_formula": shared.result,
            "extended": extended,
            "symmetry": symmetry.result,
        }
        results.update({f"universality-{p}": r for p, r in universality.results.items()})
        return {"shared": shared, "symmetry": symmetry, "results": results}

    def points(self, outcome) -> int:
        return sum(len(r.records) for r in outcome["results"].values())

    def check(self, outcome, ref: dict) -> Checks:
        checks = Checks()
        for label, sweep in ref["sweeps"].items():
            summary = None
            with contextlib.suppress(KeyError, TypeError):
                summary = outcome["results"][label].summary_dict()
            check_sweep(checks, label, summary, sweep)
        checks.add("trace_formula.predicted",
                   lambda: close(outcome["shared"].predicted, -ref["xi"], PREDICTION_RTOL))
        symmetry = ref["sweeps"]["symmetry"]["fitted_slopes"]
        checks.add("symmetry.positive_slope", lambda: close(
            outcome["symmetry"].positive_slope,
            symmetry[f"count {window_key([0.4, None])}"], RANK_ONE_RTOL))
        checks.add("symmetry.negative_slope", lambda: close(
            outcome["symmetry"].negative_slope,
            symmetry[f"count {window_key([None, -0.4])}"], RANK_ONE_RTOL))
        return checks


class HankelDeep:
    """K_eps trace slopes down to eps ~ 1e-12, kernel round trip, Laplace factor."""

    name = "hankel-deep"

    def __init__(self, inputs: dict, workdir: Path):
        self.inputs = inputs
        self.eps = np.array(inputs["eps"])
        self.t = np.array(inputs["roundtrip_t"])

    def run_pass(self):
        slopes = hankel.k_eps_trace_slopes(self.inputs["powers"], self.eps)
        roundtrip = {}
        for eps in self.inputs["roundtrip_eps"]:
            omega = lambda x, e=eps: profiles.zeta_eps(x, e) - profiles.zeta(x)  # noqa: E731
            roundtrip[str(eps)] = hankel.kernel_from_symbol(omega, self.t)
        laplace = {}
        for eps in self.inputs["laplace_eps"]:
            grid_t, grid_x = hankel.default_grid(eps), hankel.default_laplace_grid(eps)
            k = hankel.discretize_hankel(partial(hankel.k_eps_kernel, eps=eps), grid_t)
            section = hankel.laplace_section(eps, grid_t, grid_x)
            laplace[str(eps)] = (k, section, float(k.eigenvalues()[0]))
        return {"slopes": slopes, "roundtrip": roundtrip, "laplace": laplace}

    def points(self, outcome) -> int:
        return len(outcome["slopes"].eps) + len(outcome["laplace"])

    def check(self, outcome, ref: dict) -> Checks:
        checks = Checks()
        res = outcome["slopes"] if outcome else None
        checks.add("eps", lambda: np.array_equal(res.eps, ref["eps"]))
        for m, traces in ref["traces"].items():
            for i, trace in enumerate(traces):
                checks.add(f"trace m={m}[{i}]",
                           lambda: close(res.traces[int(m)][i], trace, HANKEL_RTOL))
            checks.add(f"fitted m={m}",
                       lambda: close(res.fitted[int(m)], ref["fitted"][m], HANKEL_RTOL))
            checks.add(f"predicted m={m}",
                       lambda: close(res.predicted[int(m)], ref["predicted"][m], PREDICTION_RTOL))
        for eps, kernel in ref["roundtrip_kernel"].items():
            checks.add(f"roundtrip eps={eps}", lambda: float(np.max(np.abs(
                outcome["roundtrip"][eps] - np.array(kernel)))) <= ROUNDTRIP_TOL)
        for eps in self.inputs["laplace_eps"]:
            def reconstruction(eps=str(eps)):
                k, section, _ = outcome["laplace"][eps]
                gram = section.entries.T @ section.entries / math.pi
                return float(np.max(np.abs(k.entries - gram))) <= LAPLACE_TOL
            checks.add(f"laplace eps={eps} reconstruction", reconstruction)
            checks.add(f"laplace eps={eps} positivity",
                       lambda eps=str(eps): outcome["laplace"][eps][2] >= LAPLACE_FLOOR)
        return checks


WORKLOADS = {w.name: w for w in (SweepDefault, Scoreboard, HankelDeep)}

"""Self-tests of the benchmark at small n: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from specdiff import experiments, hankel  # noqa: E402

from perfbench import inputs, oracle, tracing, workloads  # noqa: E402

SMALL_N = 200


def small(make, seed):
    inp = make(seed)
    if inp["kind"] == "rank_one":
        inp["model"]["n"] = SMALL_N
        # the n = 200 guard floor is near 0.05, so start the eps grids higher
        # to keep at least three clean points in every sweep
        for spec in inp["sweeps"]:
            spec["eps_start"] = 0.5
    else:
        inp["eps"] = [float(e) for e in np.geomspace(1e-2, 1e-4, 4)]
    return inp


@pytest.fixture(params=[0, 5], ids=["seed0", "seed5"])
def sweep_case(request, tmp_path):
    inp = small(inputs.sweep_default, request.param)
    state = workloads.SweepDefault(inp, tmp_path)
    return state, oracle.reference(inp)


def test_sweep_default_agrees_with_oracle(sweep_case):
    state, ref = sweep_case
    for _ in range(2):
        checks = state.check(state.run_pass(), ref)
        assert checks.failed == []
    assert any(name == "byte-identical json" for name, _ in checks.results)


def test_expected_exit_code_comes_from_reference(sweep_case):
    state, ref = sweep_case
    outcome = state.run_pass()
    assert outcome["exit_code"] == ref["sweeps"]["sweep"]["exit_code"]
    state.check(outcome, ref)
    flipped = dict(outcome, exit_code=1 - outcome["exit_code"])
    state.run_pass()
    assert state.check(flipped, ref).failed == ["exit_code"]


def test_perturbed_sweep_output_is_a_failure(sweep_case):
    state, ref = sweep_case
    state.check(state.run_pass(), ref)
    outcome = state.run_pass()
    path = Path(f"{state.stem}.json")
    summary = json.loads(path.read_text())
    summary["records"][0]["counts"]["(0.4,1)"] += 1
    summary["records"][1]["traces"]["2"] *= 1.0 + 1e-6
    path.write_text(json.dumps(summary, indent=2) + "\n")
    failed = state.check(outcome, ref).failed
    assert "sweep[0].count (0.4,1)" in failed
    assert "sweep[1].trace m=2" in failed
    assert "byte-identical json" in failed


def test_failed_pass_fails_every_check(sweep_case):
    state, ref = sweep_case
    checks = state.check(None, ref)
    assert checks.results and len(checks.failed) == len(checks.results)


def test_scoreboard_agrees_with_oracle(tmp_path):
    inp = small(inputs.scoreboard, 3)
    state = workloads.Scoreboard(inp, tmp_path)
    ref = oracle.reference(inp)
    outcome = state.run_pass()
    assert state.check(outcome, ref).failed == []
    assert state.points(outcome) == sum(s["eps_count"] for s in inp["sweeps"])


def test_hankel_checks_catch_a_wrong_trace(tmp_path):
    inp = small(inputs.hankel_deep, 7)
    state = workloads.HankelDeep(inp, tmp_path)
    ref = oracle.reference(inp)
    outcome = state.run_pass()
    assert state.check(outcome, ref).failed == []
    outcome["slopes"].traces[4][1] *= 1.0 + 1e-5
    assert state.check(outcome, ref).failed == ["trace m=4[1]"]


def test_oracle_matches_package_predictions():
    for lam in (0.0, 0.2, -0.17):
        point = experiments.default_config().model.build().scattering_point(lam)
        a1, xi = oracle.scattering(lam, 0.5)
        assert a1 == pytest.approx(point.a1, rel=1e-9)
        assert xi == pytest.approx(point.xi, rel=1e-9, abs=1e-12)
    for m in (1, 2, 3, 4, 6):
        assert oracle.sech_moment(m) == pytest.approx(hankel.sech_moment(m), rel=1e-10)


def test_tracing_restores_the_package_and_keeps_results(tmp_path):
    inp = small(inputs.scoreboard, 0)
    state = workloads.Scoreboard(inp, tmp_path)
    ref = oracle.reference(inp)
    before = (experiments.run_sweep, hankel.k_eps_trace_slopes.__defaults__)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        outcome = state.run_pass()
    assert (experiments.run_sweep, hankel.k_eps_trace_slopes.__defaults__) == before
    assert state.check(outcome, ref).failed == []
    layers = tracing.metrics(tracer, 1)
    assert layers["matrices.eig.calls"] == len(inp["sweeps"])
    assert layers["experiments.points"] == state.points(outcome)
    assert layers["models.build_d_eps.calls"] == state.points(outcome)
    assert 0.0 < layers["experiments.guard_flagged_frac"] < 1.0

"""Self-test of bench/layers.py at a small size, and of the BENCH_layers.json it wrote."""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from specdiff import matrices
from specdiff.models import RankOneModel

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "bench" / "layers.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_machine_info(bench):
    machine = bench.machine()
    assert machine["nproc"] >= 1 and machine["blas"]["name"]
    assert set(machine["blas_threads"]) == set(bench.THREAD_VARS)


def test_nodes_case_times_the_rule_and_cross_checks_it(bench):
    row = bench.nodes_case(200, 1)
    assert row["n"] == 200 and row["gauss_legendre_s"] > 0.0
    checks = row["cross_checks"]
    against_numpy = checks["gauss_legendre_minus_leggauss"]
    assert against_numpy["max_abs_nodes"] <= 1e-15 and against_numpy["max_rel_weights"] <= 1e-10
    for rule in ("gauss_legendre", "leggauss"):
        assert checks[f"{rule}_minus_reference"]["max_abs_nodes"] <= 1e-15
    if checks["longdouble_eps"] < 1e-18:  # the reference resolves the rule's last digits
        assert checks["gauss_legendre_minus_reference"]["max_rel_weights"] <= 1e-12


@pytest.mark.parametrize("c", [0.5, -0.7])
def test_h_case_times_the_package_and_cross_checks_it(bench, c):
    model = RankOneModel(n=200, c=c)
    row = bench.h_case(model, np.linalg.eigh(model.h.entries), 1)
    assert (row["n"], row["c"]) == (200, c)
    assert 0 < row["m"] < 200  # the gaussian bump deflates about half the nodes
    assert all(row[key] > 0.0 for key in ("build_s", "split_s", "roots_s", "solve_and_check_s",
                                          "check_s", "start_s", "eig_peak_bytes"))
    checks = row["cross_checks"]
    scale = checks["entry_scale"]
    assert checks["max_abs_w_minus_dense"] <= 1e-13 * scale
    assert checks["max_abs_p_minus_dense"] <= 1e-12
    assert checks["max_column_residual"] <= 1e-13 * scale
    assert checks["orthogonality_defect"] <= 1e-12
    # roots_s times the root iteration of the solve that eig makes
    d, z = bench.secular_input(model.block)
    origin, tau = matrices._secular_roots(d, z)
    roots = d[origin] + tau
    assert np.array_equal(roots if c > 0 else -roots[::-1], model.block.eig()[0])


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_spectrum_case_times_the_package_and_cross_checks_it(bench, eps):
    model = RankOneModel(n=200)
    row = bench.spectrum_case(model, np.linalg.eigh(model.h.entries), eps, 1)
    assert (row["n"], row["m"], row["eps"]) == (200, model.kept.size, eps)
    assert row["m"] < 200
    assert row["traces_s"] > 0.0 and row["block_pass_s"] > 0.0
    checks = row["cross_checks"]
    assert checks["max_relative_trace_error"] <= 1e-11
    assert checks["retained_eigenvalues"] > 0
    assert checks["max_abs_theta_minus_dense"] <= 1e-13
    assert checks["count_block_pass"] == checks["count_dense"]
    assert checks["block_width"] < row["m"]
    assert abs(checks["remainder"]) <= 1e-12
    assert checks["max_abs_read_theta_minus_dense"] <= checks["ritz_error_bound"] <= 1e-11


def test_batch_case_times_the_package_and_cross_checks_it(bench):
    model = RankOneModel(n=200)
    row = bench.batch_case(model, 1)
    assert (row["n"], row["m"], row["eps"]) == (200, model.kept.size, list(bench.BATCH_EPS))
    assert row["traces_s"] > 0.0 and row["block_pass_s"] > 0.0
    assert_batch_checks(row["cross_checks"])
    # at n = 200 the Ritz values no window reads match too.  At n = 1500 and 4000 the
    # first block of BLOCK_START leaves the smallest of them off by up to 2.3e-10: the
    # committed rows hold the read values and the traces of powers above 3 that sum them all
    assert row["cross_checks"]["max_abs_theta_minus_dense"] <= 1e-13
    assert row["cross_checks"]["max_abs_theta_minus_reference"] <= 1e-13


def assert_batch_checks(checks):
    assert checks["orthogonality_defect"] <= 1e-13
    assert checks["max_abs_read_theta_minus_dense"] <= 1e-13
    assert checks["max_relative_trace_difference_from_reference"] <= 1e-11
    assert checks["max_abs_read_theta_minus_reference"] <= 1e-13
    assert checks["max_relative_high_trace_error"] <= 1e-13


def test_k_eps_nystrom_case_times_the_laplace_step_and_cross_checks_it(bench):
    row = bench.k_eps_nystrom_case(1)
    assert_nystrom_row(row, bench)
    assert row["laplace_step_s"] == pytest.approx(
        sum(row[key] for key in ("grid_s", "discretize_s", "eigenvalues_s", "laplace_section_s")))


def assert_nystrom_row(row, bench):
    assert row["eps"] == list(bench.NYSTROM_EPS) and row["grid_sizes"] == [108, 132]
    assert all(row[key] > 0.0 for key in ("laplace_step_s", "grid_s", "discretize_s",
                                          "eigenvalues_s", "laplace_section_s"))
    checks = row["cross_checks"]
    assert checks["max_relative_closed_form_error"] <= 1e-12
    assert checks["max_reconstruction_error"] <= 1e-13
    assert checks["min_eigenvalue"] >= -1e-14


def key_tree(value):
    """The nested keys of a JSON value, None for a leaf."""
    return {key: key_tree(item) for key, item in value.items()} if isinstance(value, dict) else None


def test_committed_file_matches_the_script(bench, monkeypatch, tmp_path):
    committed = json.loads((ROOT / "BENCH_layers.json").read_text())
    assert (committed["repeats"], committed["d_eps_repeats"], committed["hankel_repeats"]) == (
        bench.REPEATS, bench.D_EPS_REPEATS, bench.HANKEL_REPEATS)
    assert [row["n"] for row in committed["gauss_legendre_nodes"]] == list(bench.SIZES)
    assert [(row["n"], row["c"]) for row in committed["h_eigensolve"]] == list(
        itertools.product(bench.SIZES, bench.COUPLINGS))
    # Q is the one m x m array of the solve
    assert all(row["eig_peak_bytes"] <= 1.5 * 8 * row["m"] ** 2
               for row in committed["h_eigensolve"])
    rows = committed["d_eps_spectrum"]
    assert [(row["n"], row["eps"]) for row in rows] == list(
        itertools.product(bench.SIZES, bench.EPSILONS))
    assert all(row["cross_checks"]["count_block_pass"] == row["cross_checks"]["count_dense"]
               for row in rows)
    assert all(row["cross_checks"]["max_abs_read_theta_minus_dense"]
               <= row["cross_checks"]["ritz_error_bound"] for row in rows)
    assert [row["n"] for row in committed["d_eps_batch"]] == list(bench.SIZES)
    for row in committed["d_eps_batch"]:
        assert row["eps"] == list(bench.BATCH_EPS)
        assert_batch_checks(row["cross_checks"])
    assert committed["import"]["processes"] == bench.IMPORT_PROCESSES
    # the script at n = 200 must write what the committed file holds, key for key
    monkeypatch.setattr(bench, "SIZES", (200,))
    monkeypatch.setattr(bench, "IMPORT_PROCESSES", 1)
    assert bench.main(["--output", str(tmp_path / "layers.json")]) == 0
    small = json.loads((tmp_path / "layers.json").read_text())
    assert set(committed) == set(small)
    assert key_tree(committed["machine"]) == key_tree(small["machine"])
    for section in ("gauss_legendre_nodes", "h_eigensolve", "d_eps_spectrum", "d_eps_batch"):
        assert all(key_tree(row) == key_tree(small[section][0]) for row in committed[section])
    for section in ("k_eps_traces", "k_eps_nystrom", "kernel_from_symbol", "import"):
        assert key_tree(committed[section]) == key_tree(small[section])
    for run in (committed, small):
        traces = run["k_eps_traces"]
        assert (traces["eps"], traces["powers"]) == (list(bench.HANKEL_EPS),
                                                     list(bench.HANKEL_POWERS))
        assert traces["section_sizes"] == [32, 112]
        assert traces["nystrom_grid_sizes"] == [108, 348]
        assert traces["cross_checks"]["max_relative_difference_from_eigenvalues"] <= 1e-14
        assert traces["cross_checks"]["max_relative_trace_difference"] <= 1e-12
        assert traces["cross_checks"]["max_relative_closed_form_error"] <= 1e-13
        assert_nystrom_row(run["k_eps_nystrom"], bench)
        roundtrip = run["kernel_from_symbol"]
        assert (roundtrip["t"], roundtrip["eps"]) == (list(bench.ROUNDTRIP_T),
                                                      list(bench.ROUNDTRIP_EPS))
        assert roundtrip["cross_checks"]["max_abs_error"] <= 1e-6
        imports = run["import"]
        assert imports["numpy_s"] > 0.0 and imports["specdiff_s"] > 0.0
        assert imports["cross_checks"]["scipy_modules_loaded"] == 0

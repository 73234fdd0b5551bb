"""End-to-end tests for the command-line interface.

Everything goes through main(argv) so exit codes, stdout shape, and file
side effects are exercised exactly as a shell user would see them.  Sweep
invocations use a small model (n=400) to keep the suite fast.
"""

import argparse
import json
import math

import numpy as np
import pytest

from specdiff import cli
from specdiff.cli import main
from specdiff.density import BandSet, band_count_slope, delta_m
from specdiff.experiments import SweepResult
from specdiff.hankel import k_eps_trace_exact


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDensityCommand:
    def test_window_value_matches_library(self, capsys):
        code, out, err = run(capsys, ["density", "--edges", "0.8", "--window", "0.4"])
        assert code == 0
        assert err == ""
        expected = band_count_slope(BandSet([0.8]), 0.4)
        value = float(out.splitlines()[1].split()[-1])
        assert value == pytest.approx(expected, rel=1e-10)

    def test_moment_value_matches_library(self, capsys):
        code, out, _ = run(capsys, ["density", "--edges", "0.8,0.6", "--moment", "2"])
        assert code == 0
        expected = delta_m(BandSet([0.8, 0.6]), 2)
        value = float(out.splitlines()[1].split()[-1])
        assert value == pytest.approx(expected, rel=1e-10)

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, ["--json", "density", "--edges", "0.8,0.6", "--window", "0.3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["quantity"] == "band_count_slope"
        assert payload["argument"] == 0.3
        assert payload["edges"] == [0.8, 0.6]
        assert payload["value"] == pytest.approx(
            band_count_slope(BandSet([0.8, 0.6]), 0.3), rel=1e-10
        )

    def test_empty_edges_gives_zero_slope(self, capsys):
        code, out, _ = run(capsys, ["--json", "density", "--edges", "", "--window", "0.5"])
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_requires_exactly_one_quantity(self, capsys):
        code, _, err = run(capsys, ["density", "--edges", "0.8"])
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(
            capsys, ["density", "--edges", "0.8", "--window", "0.4", "--moment", "2"]
        )
        assert code == 2

    def test_rejects_out_of_range_edge(self, capsys):
        code, _, err = run(capsys, ["density", "--edges", "1.5", "--window", "0.4"])
        assert code == 2
        assert "specdiff: error" in err

    def test_rejects_negative_edge(self, capsys):
        code, out, err = run(capsys, ["density", "--edges", "-0.5", "--window", "0.4"])
        assert (code, out) == (2, "")
        assert "specdiff: error: band edges must lie in [0, 1]" in err

    def test_rejects_unparseable_edges(self, capsys):
        code, _, _ = run(capsys, ["density", "--edges", "0.8,oops", "--window", "0.4"])
        assert code == 2


class TestHankelCommand:
    ARGS = ["hankel", "--eps-start", "1e-2", "--eps-stop", "1e-4",
            "--count", "4", "--powers", "1,2"]

    def test_csv_shape_and_exact_columns(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,log_inv_eps,trace_m1,trace_m2,exact_m1,exact_m2"
        data = [line.split(",") for line in lines[1:5]]
        assert len(data) == 4
        for row in data:
            eps = float(row[0])
            assert float(row[1]) == pytest.approx(math.log(1.0 / eps), rel=1e-12)
            assert float(row[4]) == pytest.approx(k_eps_trace_exact(eps, 1), rel=1e-12)
            assert float(row[5]) == pytest.approx(k_eps_trace_exact(eps, 2), rel=1e-12)
        comments = [line for line in lines if line.startswith("#")]
        assert any(line.startswith("# m=1 fitted_slope=") for line in comments)
        assert any(line.startswith("# m=2 fitted_slope=") for line in comments)
        assert any(line.startswith("# resolution_ok=true") for line in comments)

    def test_empty_powers_prints_only_the_eps_columns(self, capsys):
        code, out, _ = run(capsys, ["hankel", "--powers", ""])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "epsilon,log_inv_eps" and len(lines) == 9
        assert all(len(line.split(",")) == 2 for line in lines[1:8])
        assert float(lines[1].split(",")[0]) == 1e-2
        assert lines[8].startswith("# resolution_ok=true max_oracle_deviation=")

    def test_empty_powers_write_the_output_file(self, capsys, tmp_path):
        path = tmp_path / "traces.csv"
        code, out, _ = run(capsys, ["hankel", "--powers", "", "--output", str(path)])
        assert (code, out) == (0, f"wrote {path}\n")
        assert path.read_text().startswith("epsilon,log_inv_eps\n0.01,")

    def test_empty_powers_json_has_empty_tables(self, capsys, tmp_path):
        path = tmp_path / "traces.csv"
        code, out, _ = run(capsys, ["--json", "hankel", "--powers", "", "--output", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["epsilon"]) == 7 and payload["resolution_ok"] is True
        assert payload["traces"] == payload["fitted_slopes"] == payload["predicted_slopes"] == {}
        assert path.read_text().startswith("epsilon,log_inv_eps\n")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "traces.csv"
        code, out, _ = run(capsys, self.ARGS + ["--output", str(path)])
        assert code == 0
        assert f"wrote {path}" in out
        text = path.read_text()
        assert text.startswith("epsilon,log_inv_eps,trace_m1")
        assert text.endswith("\n")

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        path = tmp_path / "absent" / "traces.csv"
        code, _, err = run(capsys, self.ARGS + ["--output", str(path)])
        assert code == 2
        assert "specdiff: error: cannot write" in err

    def test_json_payload_is_pure_json(self, capsys):
        code, out, _ = run(capsys, ["--json"] + self.ARGS)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"epsilon", "log_inv_eps", "traces", "fitted_slopes",
                                "predicted_slopes", "resolution_ok"}
        assert len(payload["epsilon"]) == 4
        assert set(payload["traces"]) == {"1", "2"}
        # m=1 slope approaches 1/(2 pi) over this range
        assert payload["fitted_slopes"]["1"] == pytest.approx(1 / (2 * math.pi), rel=5e-3)

    def test_rejects_bad_ranges_and_powers(self, capsys):
        cases = [
            ["hankel", "--count", "2"],
            ["hankel", "--eps-start", "1e-5", "--eps-stop", "1e-2"],
            ["hankel", "--eps-start", "2.0"],
            ["hankel", "--powers", "0"],
            ["hankel", "--powers", "1,x"],
        ]
        for argv in cases:
            code, _, err = run(capsys, argv)
            assert code == 2, argv
            assert "specdiff: error" in err

    # the error names the input before NumPy could warn of an overflow
    @pytest.mark.filterwarnings("error")
    def test_eps_whose_log_overflows_exits_two(self, capsys):
        code, out, err = run(capsys, ["hankel", "--eps-start", "1e-320",
                                      "--eps-stop", "5e-324", "--count", "3"])
        assert (code, out) == (2, "")
        assert "specdiff: error: cannot cut" in err
        assert "Traceback" not in err

    def test_rejects_repeated_powers(self, capsys):
        code, out, err = run(capsys, ["hankel", "--powers", "2,2"])
        assert (code, out) == (2, "")
        assert "specdiff: error: trace powers must be distinct" in err


def write_config(path, **overrides):
    data = {
        "model": {"L": 8.0, "n": 400, "bump": "gaussian", "c": 0.5},
        "epsilon": {"start": 0.3, "stop": 0.03, "count": 5},
        "windows": [[0.4, 1.0]],
        "trace_powers": [1, 2],
        "tolerance": 10.0,
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


class TestSweepCommand:
    def test_runs_and_writes_outputs(self, capsys, tmp_path):
        prefix = tmp_path / "sw"
        cfg = write_config(tmp_path / "cfg.json", output=str(prefix))
        code, out, _ = run(capsys, ["sweep", "--config", cfg])
        assert code == 0
        assert "worst deviation" in out
        assert "[ok]" in out or "[FAIL]" in out
        csv_text = (tmp_path / "sw.csv").read_text()
        assert csv_text.startswith("epsilon,log_inv_eps,")
        summary = json.loads((tmp_path / "sw.json").read_text())
        assert summary["profile"] == "ARCTAN_HALF"
        assert len(summary["records"]) == 5

    def test_exit_one_when_tolerance_missed(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           tolerance=1e-9)
        code, out, _ = run(capsys, ["sweep", "--config", cfg])
        assert code == 1
        assert "[FAIL]" in out

    def test_json_mode_emits_payload_only(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"))
        code, out, _ = run(capsys, ["--json", "sweep", "--config", cfg])
        assert code == 0
        payload = json.loads(out)
        assert payload["profile"] == "ARCTAN_HALF"
        assert payload["windows"] == ["(0.4,1)"]

    def test_deterministic_across_runs(self, capsys, tmp_path):
        cfg_a = write_config(tmp_path / "a.json", output=str(tmp_path / "run_a"))
        cfg_b = write_config(tmp_path / "b.json", output=str(tmp_path / "run_b"))
        assert run(capsys, ["sweep", "--config", cfg_a])[0] == 0
        assert run(capsys, ["sweep", "--config", cfg_b])[0] == 0
        assert (tmp_path / "run_a.csv").read_bytes() == (tmp_path / "run_b.csv").read_bytes()
        assert (tmp_path / "run_a.json").read_bytes() == (tmp_path / "run_b.json").read_bytes()

    def test_multi_profile_suffixes(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           profiles=["ARCTAN_HALF", "TANH_HALF"])
        code, _, _ = run(capsys, ["sweep", "--config", cfg])
        assert code == 0
        for name in ("ARCTAN_HALF", "TANH_HALF"):
            assert (tmp_path / f"sw-{name}.csv").exists()
            summary = json.loads((tmp_path / f"sw-{name}.json").read_text())
            assert summary["profile"] == name

    def test_each_summary_is_built_once_and_printed_as_written(self, capsys, tmp_path,
                                                                monkeypatch):
        built = []
        summary_dict = SweepResult.summary_dict
        monkeypatch.setattr(SweepResult, "summary_dict",
                            lambda self: built.append(self.profile) or summary_dict(self))
        profiles = ["ARCTAN_HALF", "TANH_HALF"]
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"), profiles=profiles)
        code, out, _ = run(capsys, ["--json", "sweep", "--config", cfg])
        assert code == 0 and built == profiles
        assert json.loads(out) == [json.loads((tmp_path / f"sw-{name}.json").read_text())
                                   for name in profiles]

    def test_repeated_profiles_exit_two_before_any_sweep(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           profiles=["ARCTAN_HALF", "arctan_half", "ARCTAN_HALF"])
        code, out, err = run(capsys, ["sweep", "--config", cfg])
        assert (code, out) == (2, "")
        assert "specdiff: error: profiles must be distinct" in err
        assert list(tmp_path.glob("sw*")) == []

    def test_missing_config_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["sweep", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_corrupt_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["sweep", "--config", str(path)])
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"surprise": 1}))
        code, _, err = run(capsys, ["sweep", "--config", str(path)])
        assert code == 2
        assert "unknown config keys" in err

    def test_non_integer_count_exits_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           epsilon={"start": 0.3, "stop": 0.03, "count": 8.7})
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert "specdiff: error: epsilon count" in err
        assert not (tmp_path / "sw.csv").exists()

    def test_missing_output_directory_exits_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "absent" / "sw"))
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert "specdiff: error: cannot write" in err

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        # the directory exists, so the sweep runs; sw.csv is a directory, so writing fails
        (tmp_path / "sw.csv").mkdir()
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"))
        code, out, err = run(capsys, ["sweep", "--config", cfg])
        assert (code, out) == (2, "")
        assert err.startswith("specdiff: error: cannot write the sweep output: ")
        assert err.count("\n") == 1

    def test_scalar_trace_powers_exit_two(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"), trace_powers=5)
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert "specdiff: error: trace_powers must be a list" in err

    @pytest.mark.parametrize("model, message", [
        ({"L": [1], "n": 400}, "model L must be a number"),
        ({"c": "x", "n": 400}, "model c must be a number"),
    ])
    def test_wrong_model_value_type_exits_two(self, capsys, tmp_path, model, message):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"), model=model)
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert f"specdiff: error: {message}" in err
        assert "Traceback" not in err

    def test_repeated_windows_exit_two_before_any_sweep(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           windows=[[0.4, 1.0], [0.4000001, 1.0]])
        code, out, err = run(capsys, ["sweep", "--config", cfg])
        assert (code, out) == (2, "")
        assert "specdiff: error: windows must be distinct" in err
        assert list(tmp_path.glob("sw*")) == []

    # the error names the input before NumPy could warn of an overflow
    # 1e308 makes an infinite panel count, 1e200 one that could not be allocated
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("width", [1e308, 1e200])
    def test_model_too_wide_for_its_panels_exits_two(self, capsys, tmp_path, width):
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           model={"L": width, "n": 400})
        code, out, err = run(capsys, ["sweep", "--config", cfg])
        assert (code, out) == (2, "")
        assert "specdiff: error: cannot cut" in err
        assert f"L = {width!r} is too wide" in err
        assert err.count("\n") == 1 and err.startswith("specdiff: error: ")

    def test_missing_output_directory_is_found_before_the_sweep(self, capsys, tmp_path,
                                                               monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "absent" / "sw"))
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert "specdiff: error: cannot write" in err

    def test_output_with_a_trailing_slash_is_found_before_the_sweep(self, capsys, tmp_path,
                                                                    monkeypatch):
        # "absent/" writes absent/.csv: its directory, not the one above, must exist
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = write_config(tmp_path / "cfg.json", output=f"{tmp_path / 'absent'}/")
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 2
        assert f"specdiff: error: cannot write the sweep output: no directory " \
               f"{str(tmp_path / 'absent')!r}" in err

    def test_guard_rejection_exits_one(self, capsys, tmp_path):
        # every point below the n=400 resolution floor: the run must refuse
        cfg = write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"),
                           epsilon={"start": 0.02, "stop": 0.005, "count": 4})
        code, _, err = run(capsys, ["sweep", "--config", cfg])
        assert code == 1
        assert "specdiff: error" in err


@pytest.fixture(scope="module")
def summary_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("report")
    cfg = write_config(tmp / "cfg.json", output=str(tmp / "sw"))
    assert main(["sweep", "--config", cfg]) == 0
    return tmp / "sw.json"


class TestReportCommand:
    def test_renders_text_and_svg(self, capsys, summary_path):
        svg_path = summary_path.parent / "chart.svg"
        code, out, _ = run(capsys, ["report", "--input", str(summary_path),
                                    "--svg", str(svg_path)])
        assert code == 0
        assert "profile ARCTAN_HALF" in out
        assert "count (0.4,1)" in out
        assert f"wrote {svg_path}" in out
        svg = svg_path.read_text()
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")

    def test_default_svg_path_replaces_suffix(self, capsys, summary_path):
        code, out, _ = run(capsys, ["report", "--input", str(summary_path)])
        assert code == 0
        assert summary_path.with_suffix(".svg").exists()

    def test_svg_is_byte_identical_across_renders(self, capsys, summary_path):
        a = summary_path.parent / "a.svg"
        b = summary_path.parent / "b.svg"
        run(capsys, ["report", "--input", str(summary_path), "--svg", str(a)])
        run(capsys, ["report", "--input", str(summary_path), "--svg", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_input_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, ["report", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in err

    def test_corrupt_input_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("][")
        code, _, err = run(capsys, ["report", "--input", str(path)])
        assert code == 2
        assert "not valid JSON" in err

    def test_non_object_input_exits_two(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        code, _, err = run(capsys, ["report", "--input", str(path)])
        assert code == 2
        assert "specdiff: error" in err and "JSON object" in err

    def test_object_that_is_not_a_summary_exits_two(self, capsys, tmp_path):
        for text in ("{}", '{"records": {}, "fitted_slopes": {}}',
                     '{"records": [], "fitted_slopes": []}',
                     '{"records": [{}], "fitted_slopes": {}}',
                     '{"records": [5], "fitted_slopes": {}}',
                     '{"records": [], "fitted_slopes": {"a": null}}',
                     '{"records": [], "fitted_slopes": {}, "windows": 5}'):
            path = tmp_path / "other.json"
            path.write_text(text)
            svg_path = tmp_path / "other.svg"
            code, out, err = run(capsys, ["report", "--input", str(path),
                                          "--svg", str(svg_path)])
            assert code == 2, text
            assert "specdiff: error" in err and "not a sweep summary" in err
            assert out == "" and not svg_path.exists()

    @pytest.mark.parametrize("field", ["log_inv_eps", "count", "fitted_slope"])
    def test_non_finite_numbers_exit_two(self, capsys, summary_path, tmp_path, field):
        # json.loads reads NaN and Infinity; a sweep never writes them
        summary = json.loads(summary_path.read_text())
        if field == "log_inv_eps":
            summary["records"][0]["log_inv_eps"] = math.nan
        elif field == "count":
            counts = summary["records"][1]["counts"]
            counts[next(iter(counts))] = math.inf
        else:
            slopes = summary["fitted_slopes"]
            slopes[next(iter(slopes))] = -math.inf
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(summary))
        svg_path = tmp_path / "nonfinite.svg"
        code, out, err = run(capsys, ["report", "--input", str(path), "--svg", str(svg_path)])
        assert (code, out) == (2, "")
        assert "specdiff: error" in err and "not a sweep summary" in err
        assert not svg_path.exists()

    def test_negative_counts_exit_two(self, capsys, summary_path, tmp_path):
        # a count is never negative; with every count -1 the chart's count axis would have no
        # span to divide by
        summary = json.loads(summary_path.read_text())
        for record in summary["records"]:
            record["counts"] = dict.fromkeys(record["counts"], -1)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(summary))
        svg_path = tmp_path / "negative.svg"
        code, out, err = run(capsys, ["report", "--input", str(path), "--svg", str(svg_path)])
        assert (code, out) == (2, "")
        assert "not a sweep summary" in err and "numbers >= 0" in err
        assert not svg_path.exists()

    @pytest.mark.parametrize("field", ["log_inv_eps", "fitted_slope"])
    def test_overflowing_scales_exit_two(self, capsys, summary_path, tmp_path, field):
        # every number is finite, but max - min of log_inv_eps, or slope * x, is not: the
        # chart would get nan or inf coordinates
        summary = json.loads(summary_path.read_text())
        if field == "log_inv_eps":
            summary["records"][0]["log_inv_eps"] = 1e308
            summary["records"][-1]["log_inv_eps"] = -1e308
        else:
            summary["fitted_slopes"]["count (0.4,1)"] = 1e308
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(summary))
        svg_path = tmp_path / "wide.svg"
        code, out, err = run(capsys, ["report", "--input", str(path), "--svg", str(svg_path)])
        assert (code, out) == (2, "")
        assert "specdiff: error" in err and "finite chart scale" in err
        assert not svg_path.exists()

    def test_json_flag_is_refused(self, capsys, summary_path, tmp_path):
        svg_path = tmp_path / "chart.svg"
        code, out, err = run(capsys, ["--json", "report", "--input", str(summary_path),
                                      "--svg", str(svg_path)])
        assert (code, out) == (2, "")
        assert "specdiff: error: --json does not apply to report" in err
        assert not svg_path.exists()

    def test_unwritable_svg_exits_two(self, capsys, summary_path, tmp_path):
        svg_path = tmp_path / "absent" / "chart.svg"
        code, _, err = run(capsys, ["report", "--input", str(summary_path),
                                    "--svg", str(svg_path)])
        assert code == 2
        assert "specdiff: error: cannot write" in err


@pytest.mark.parametrize("command", ["density", "hankel", "hankel-no-powers", "sweep",
                                     "report"])
def test_json_prints_one_document_or_exits_two(capsys, tmp_path, summary_path, command):
    argv = {
        "density": ["density", "--edges", "0.8,0.6", "--moment", "2"],
        "hankel": TestHankelCommand.ARGS,
        "hankel-no-powers": ["hankel", "--count", "4", "--powers", ""],
        "sweep": ["sweep", "--config",
                  write_config(tmp_path / "cfg.json", output=str(tmp_path / "sw"))],
        "report": ["report", "--input", str(summary_path), "--svg", str(tmp_path / "c.svg")],
    }[command]
    code, out, _ = run(capsys, ["--json", *argv])
    if code == 2:
        assert out == ""
    else:
        json.loads(out)  # one document: trailing text fails to parse


class TestParser:
    def test_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_main_builds_one_parser_per_process(self, capsys, monkeypatch):
        progs, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for _ in range(2):
            assert main(["density", "--edges", "0.8", "--moment", "2"]) == 0
        assert progs.count("specdiff") == 1  # the subcommands' parsers have longer progs

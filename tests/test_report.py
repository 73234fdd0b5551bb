"""Tests for text and SVG rendering of sweep summaries."""

import pytest

from specdiff.report import render_svg, render_text


def sample_summary():
    return {
        "profile": "ARCTAN_HALF",
        "lambda": 0.0,
        "guard_floor": 0.01,
        "band_edges": [0.84],
        "xi": 0.32,
        "windows": ["(0.4,1)"],
        "fitted_slopes": {"count (0.4,1)": 0.25, "trace m=1": -0.003},
        "fitted_intercepts": {"count (0.4,1)": -0.3, "trace m=1": -0.3},
        "predicted_slopes": {"count (0.4,1)": 0.1396, "trace m=1": 0.0},
        "deviations": {"count (0.4,1)": 0.79, "trace m=1": 0.003},
        "residuals": {"count (0.4,1)": 0.28, "trace m=1": 0.001},
        "records": [
            {"epsilon": 0.1, "log_inv_eps": 2.3026, "guard_flag": False,
             "counts": {"(0.4,1)": 0}, "traces": {"1": -0.29}},
            {"epsilon": 0.01, "log_inv_eps": 4.6052, "guard_flag": False,
             "counts": {"(0.4,1)": 1}, "traces": {"1": -0.31}},
            {"epsilon": 0.003, "log_inv_eps": 5.8091, "guard_flag": True,
             "counts": {"(0.4,1)": 1}, "traces": {"1": -0.30}},
        ],
    }


class TestRenderText:
    def test_lists_each_fitted_quantity(self):
        text = render_text(sample_summary())
        assert "profile ARCTAN_HALF" in text
        assert "count (0.4,1)" in text
        assert "trace m=1" in text
        assert "records 3 (1 guard-flagged)" in text
        assert text.endswith("\n")

    def test_tolerates_missing_keys(self):
        text = render_text({})
        assert "profile ?" in text
        assert "records 0 (0 guard-flagged)" in text


class TestRenderSvg:
    def test_well_formed_and_deterministic(self):
        summary = sample_summary()
        svg = render_svg(summary)
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")
        assert svg == render_svg(sample_summary())

    def test_marks_flagged_points_as_open_circles(self):
        svg = render_svg(sample_summary())
        filled = svg.count('r="4" fill="#')
        open_ = svg.count('r="4" fill="none"')
        assert filled == 2
        assert open_ == 1

    def test_draws_fitted_and_predicted_lines(self):
        svg = render_svg(sample_summary())
        assert svg.count('stroke-dasharray="6 4"') == 1
        assert 'log(1/eps)' in svg

    def test_no_timestamps_or_environment_leaks(self):
        svg = render_svg(sample_summary())
        for token in ("date", "time", "user", "host"):
            assert token not in svg.lower()

    def test_empty_summary_still_renders(self):
        svg = render_svg({})
        assert svg.startswith("<svg xmlns=")
        assert svg.rstrip().endswith("</svg>")

    def test_one_abscissa_gets_a_unit_span(self):
        summary = sample_summary()
        for record in summary["records"]:
            record["log_inv_eps"] = 2.0
        svg = render_svg(summary)
        for tick in ("2", "2.25", "2.5", "2.75", "3"):
            assert f">{tick}</text>" in svg

    def test_skips_a_window_a_record_has_no_count_for(self):
        summary = sample_summary()
        del summary["records"][0]["counts"]["(0.4,1)"]
        assert render_svg(summary).count('r="4"') == 2

    @pytest.mark.parametrize("counts", [(-1, -1), (-3, -5), (2, -1)])
    def test_refuses_a_negative_count(self, counts):
        # the count axis starts at 0: all -1 would leave it no span, -3 and -5 a negative one
        summary = sample_summary()
        summary["records"] = summary["records"][:2]
        for record, count in zip(summary["records"], counts):
            record["counts"]["(0.4,1)"] = count
        with pytest.raises(ValueError, match='"counts" object of numbers >= 0'):
            render_svg(summary)

"""Command-line interface.

Four subcommands cover the lab's workflows:

  density   evaluate predicted slopes and moments of the limiting density
  hankel    discretize the model kernel K_eps and fit its trace slopes
  sweep     run a configured projection-difference sweep, write CSV + JSON
  report    render a sweep summary JSON as plain text and an SVG chart

Exit codes: 0 success, 1 a run finished but missed its tolerance (or the
resolution guard left too few points to fit), 2 bad arguments, configuration
or input, or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .density import BandSet, band_count_slope, delta_m
from .experiments import ResolutionGuardError, SweepConfig, run_sweep
from .hankel import k_eps_trace_exact, k_eps_trace_slopes
from .report import check_summary, render_svg, render_text

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdiff",
        description="Numerical lab for spectral concentration of smoothed projection differences.",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_density = sub.add_parser("density", help="limiting-density slopes and moments")
    p_density.add_argument("--edges", required=True,
                           help="comma-separated band edges in (0, 1], e.g. 0.8,0.6")
    p_density.add_argument("--window", type=float, default=None,
                           help="threshold b: report the count slope in (b, 1), one side")
    p_density.add_argument("--moment", type=int, default=None,
                           help="moment order m: report Delta_m")

    p_hankel = sub.add_parser("hankel", help="model-kernel trace slopes")
    p_hankel.add_argument("--eps-start", type=float, default=1e-2)
    p_hankel.add_argument("--eps-stop", type=float, default=1e-5)
    p_hankel.add_argument("--count", type=int, default=7)
    p_hankel.add_argument("--powers", default="1,2,3,4,6",
                          help="comma-separated trace powers (empty: only the eps columns)")
    p_hankel.add_argument("--output", default=None, help="write CSV here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run a configured sweep")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON path")

    p_report = sub.add_parser("report", help="render a sweep summary")
    p_report.add_argument("--input", required=True, help="sweep summary JSON path")
    p_report.add_argument("--svg", default=None,
                          help="SVG output path (default: summary path with .svg)")
    return parser


_parser = functools.cache(build_parser)  # main's parser, built once per process on first use


def _fail(message: str, code: int) -> int:
    print(f"specdiff: error: {message}", file=sys.stderr)
    return code


def _cmd_density(args) -> int:
    bands = BandSet([float(e) for e in args.edges.split(",") if e.strip() != ""])
    if (args.window is None) == (args.moment is None):
        raise ValueError("exactly one of --window or --moment is required")
    if args.window is not None:
        name, value = "band_count_slope", band_count_slope(bands, args.window)
        argument = args.window
    else:
        name, value = f"delta_{args.moment}", delta_m(bands, args.moment)
        argument = args.moment
    if args.json:
        print(json.dumps({"edges": list(bands), "quantity": name,
                          "argument": argument, "value": value}))
    else:
        print(f"{'edges':<20} {list(bands)}")
        print(f"{name + f'({argument:g})':<20} {value:.12g}")
    return 0


def _cmd_hankel(args) -> int:
    powers = [int(p) for p in args.powers.split(",") if p.strip() != ""]
    if not (0 < args.eps_stop < args.eps_start < 1):
        raise ValueError("need 0 < --eps-stop < --eps-start < 1")
    eps_values = np.geomspace(args.eps_start, args.eps_stop, args.count)
    result = k_eps_trace_slopes(powers, eps_values)

    header = ["epsilon", "log_inv_eps"]
    header += [f"trace_m{m}" for m in powers]
    header += [f"exact_m{m}" for m in (1, 2) if m in powers]
    lines = [",".join(header)]
    for i, eps in enumerate(result.eps):
        row = [f"{eps:.17g}", f"{result.log_inv_eps[i]:.17g}"]
        row += [f"{result.traces[m][i]:.17g}" for m in powers]
        row += [f"{k_eps_trace_exact(eps, m):.17g}" for m in (1, 2) if m in powers]
        lines.append(",".join(row))
    for m in powers:
        dev = abs(result.fitted[m] - result.predicted[m]) / result.predicted[m]
        lines.append(
            f"# m={m} fitted_slope={result.fitted[m]:.10g} "
            f"predicted={result.predicted[m]:.10g} deviation={dev:.3%}"
        )
    lines.append(f"# resolution_ok={str(result.resolution_ok).lower()} "
                 f"max_oracle_deviation={float(np.max(result.oracle_deviation)):.3e}")

    if args.json:
        payload = {
            "epsilon": [float(e) for e in result.eps],
            "log_inv_eps": [float(v) for v in result.log_inv_eps],
            "traces": {str(m): [float(v) for v in result.traces[m]] for m in powers},
            "fitted_slopes": {str(m): result.fitted[m] for m in powers},
            "predicted_slopes": {str(m): result.predicted[m] for m in powers},
            "resolution_ok": result.resolution_ok,
        }
        print(json.dumps(payload, indent=2))
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            return _fail(f"cannot write {args.output!r}: {exc}", 2)
        if not args.json:
            print(f"wrote {args.output}")
    elif not args.json:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig.from_json(args.config)
    prefix = config.output or "sweep"
    directory = Path(f"{prefix}.csv").parent  # "out/" writes out/.csv: pathlib drops the slash
    if not directory.is_dir():  # found now, not after the whole sweep has run
        return _fail(f"cannot write the sweep output: no directory {str(directory)!r}", 2)
    worst = 0.0
    payloads = []
    try:
        for name in config.profiles:
            result = run_sweep(config, profile=name)
            stem = prefix if len(config.profiles) == 1 else f"{prefix}-{name}"
            try:
                result.write_csv(f"{stem}.csv")
                payloads.append(result.write_summary(f"{stem}.json"))
            except OSError as exc:
                return _fail(f"cannot write the sweep output: {exc}", 2)
            if not args.json:
                for key, dev in result.deviations.items():
                    verdict = "ok" if dev <= config.tolerance else "FAIL"
                    print(
                        f"{name} {key}: fitted {result.fitted_slopes[key]:+.6f} "
                        f"predicted {result.predicted_slopes[key]:+.6f} "
                        f"deviation {dev:.3f} [{verdict}]"
                    )
                print(f"{name}: wrote {stem}.csv, {stem}.json")
            worst = max(worst, result.max_deviation())
    except ResolutionGuardError as exc:
        return _fail(str(exc), 1)

    if args.json:
        print(json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2))
    else:
        print(f"worst deviation {worst:.3f} vs tolerance {config.tolerance:.3f}")
    return 0 if worst <= config.tolerance else 1


def _cmd_report(args) -> int:
    if args.json:
        raise ValueError("--json does not apply to report")
    path = Path(args.input)
    try:
        summary = json.loads(path.read_text())
    except OSError as exc:
        return _fail(f"cannot read {args.input!r}: {exc}", 2)
    except json.JSONDecodeError as exc:
        return _fail(f"{args.input!r} is not valid JSON: {exc}", 2)
    try:
        check_summary(summary)
    except ValueError as exc:
        return _fail(f"{args.input!r} is not a sweep summary: {exc}", 2)
    svg_path = Path(args.svg) if args.svg else path.with_suffix(".svg")
    try:
        svg_path.write_text(render_svg(summary))
    except OSError as exc:
        return _fail(f"cannot write {str(svg_path)!r}: {exc}", 2)
    print(render_text(summary), end="")
    print(f"wrote {svg_path}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "density": _cmd_density,
        "hankel": _cmd_hankel,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:  # a ConfigError too: the one exit-2 path for bad input
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())

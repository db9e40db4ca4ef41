"""Command-line front end: figure data, Monte Carlo runs, verification.

Subcommands: beta-density, photon-stats, loss-gain, conditional,
polarization, sample, verify. Tables go to --out as CSV (RFC-4180 body,
17-significant-digit floats) or JSON; '-' writes to stdout. --cutoff
defaults to 32. Exit codes: 0 success, 1 verification failure, 2
usage error, including a q the quadrature grid cannot hold.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import GridMismatchError
from .fock import number_state
from .sampler import MAX_SHOTS, SamplerConfig, run_shots
from .statistics import (
    _conditional_densities,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
    single_photon_beta_density,
    sweep_q,
)
from .tables import OutputTable
from .teleport import _as_q
from .verification import CHECK_LEVELS, run_checks

__all__ = ["main", "build_parser", "parse_range_spec"]

_DEFAULT_CUTOFF = 32

# the most float64 points an array can hold
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def parse_range_spec(spec: str) -> np.ndarray:
    """Parse 'start:end:step' into an inclusive grid.

    Both endpoints are included whenever the step divides the span (to
    float tolerance).
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be start:end:step, got {spec!r}")
    try:
        start, end, step = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric range {spec!r}") from exc
    if not all(math.isfinite(v) for v in (start, end, step)):
        raise argparse.ArgumentTypeError(f"range must be finite, got {spec!r}")
    if step <= 0.0:
        raise argparse.ArgumentTypeError(f"step must be > 0, got {step}")
    if end < start:
        raise argparse.ArgumentTypeError(f"range end {end} below start {start}")
    span = (end - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"range {spec!r} has too many points for an array")
    count = int(math.floor(span))
    return start + step * np.arange(count + 1)


def _q_value(text: str) -> float:
    try:
        q = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"q must be a number, got {text!r}") from exc
    try:
        return _as_q(q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _non_negative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _shot_count(text: str) -> int:
    n = _non_negative_int(text)
    if n > MAX_SHOTS:
        raise argparse.ArgumentTypeError(f"must be <= 2**32 = {MAX_SHOTS}, got {n}")
    return n


def _q_range(text: str) -> np.ndarray:
    values = parse_range_spec(text)
    if values[-1] >= 1.0 or values[0] < 0.0:
        raise argparse.ArgumentTypeError(f"q range must stay within [0, 1), got {text!r}")
    return values


def _radial_range(text: str) -> np.ndarray:
    values = parse_range_spec(text)
    if values[0] < 0.0:
        raise argparse.ArgumentTypeError(f"radial range must start at |beta| >= 0, got {text!r}")
    return values


def _write_output(text: str, out: str) -> int:
    if out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _base_metadata(**kwargs) -> dict:
    meta = {"version": __version__}
    meta.update(kwargs)
    return meta


def cmd_beta_density(args: argparse.Namespace) -> int:
    axis = args.range
    rows = []
    for x in axis:
        for y in axis:
            rows.append([float(x), float(y), single_photon_beta_density(args.q, complex(x, y))])
    table = OutputTable(
        columns=["x_minus", "y_plus", "density"],
        rows=rows,
        metadata=_base_metadata(command="beta-density", q=args.q, range=args.range_text),
    )
    return _write_output(table.serialize(args.format), args.out)


def cmd_photon_stats(args: argparse.Namespace) -> int:
    cutoff = args.cutoff
    if args.max_n > cutoff:
        print(f"error: --max-n {args.max_n} above cutoff {cutoff}", file=sys.stderr)
        return 2
    dist = photon_statistics_quadrature(number_state(1, cutoff), args.q)
    rows = [
        [float(n), photon_statistics_closed_form(args.q, n), float(dist.probabilities[n])]
        for n in range(args.max_n + 1)
    ]
    closed_residual = 1.0 - sum(row[1] for row in rows)
    table = OutputTable(
        columns=["n", "probability", "probability_quadrature"],
        rows=rows,
        metadata=_base_metadata(
            command="photon-stats",
            q=args.q,
            cutoff=cutoff,
            residual_closed_form=closed_residual,
            residual_quadrature=dist.residual,
        ),
    )
    return _write_output(table.serialize(args.format), args.out)


def cmd_sweep(args: argparse.Namespace) -> int:
    table = sweep_q(
        args.quantity, args.q_range, with_quadrature=args.with_quadrature, cutoff=args.cutoff
    )
    table.metadata.update(_base_metadata(command=args.command, q_range=args.q_range_text))
    return _write_output(table.serialize(args.format), args.out)


def cmd_conditional(args: argparse.Namespace) -> int:
    rows = []
    for r in args.radial_range:
        beta = complex(float(r))
        total, p0, p1, p_ge2 = _conditional_densities(args.q, beta)
        rows.append([float(r), total, p1, p0, p_ge2])
    table = OutputTable(
        columns=["beta_abs", "total", "p_one", "p_zero", "p_ge2"],
        rows=rows,
        metadata=_base_metadata(
            command="conditional", q=args.q, radial_range=args.radial_range_text
        ),
    )
    return _write_output(table.serialize(args.format), args.out)


def cmd_sample(args: argparse.Namespace) -> int:
    config = SamplerConfig(
        master_seed=args.seed, shots=args.shots, q=args.q, input_state=number_state(1, args.cutoff)
    )
    result = run_shots(config)
    table = OutputTable(
        columns=["shot_index", "x_minus", "y_plus", "photon_count", "category_code"],
        rows=np.column_stack(
            (
                np.arange(args.shots),
                result.betas.real,
                result.betas.imag,
                result.photon_counts,
                result.category_codes,
            )
        ),
        metadata=_base_metadata(
            command="sample",
            q=args.q,
            cutoff=args.cutoff,
            seed=args.seed,
            shots=args.shots,
            counts=result.counts,
            overflow=result.overflow,
        ),
    )
    return _write_output(table.serialize(args.format), args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_checks(args.level)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_table_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default="-", help="output path; '-' writes to stdout")


def _add_sweep(commands, name: str, quantity: str, help_text: str) -> None:
    sub = commands.add_parser(name, help=help_text)
    sub.add_argument("--q-range", dest="q_range_text", default="0:0.99:0.01")
    sub.add_argument("--with-quadrature", action="store_true")
    sub.add_argument("--cutoff", type=int, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_sweep, quantity=quantity)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Data behind truncated Fock-space teleportation of single photons",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("beta-density", help="outcome density grid for the photon input")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--range", dest="range_text", default="-4:4:0.1", help="grid for both axes")
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_beta_density)

    sub = commands.add_parser("photon-stats", help="output photon-number distribution")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--max-n", type=_non_negative_int, default=10)
    sub.add_argument("--cutoff", type=int, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_photon_stats)

    _add_sweep(commands, "loss-gain", "loss_gain", "loss/success/gain split swept over q")

    sub = commands.add_parser("conditional", help="joint photon-count/outcome densities vs |beta|")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--radial-range", dest="radial_range_text", default="0:4:0.05")
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_conditional)

    _add_sweep(
        commands, "polarization", "polarization", "polarization outcome budget swept over q"
    )

    sub = commands.add_parser("sample", help="seeded Monte Carlo shot list")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--shots", type=_shot_count, default=10_000)
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument("--cutoff", type=int, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_sample)

    sub = commands.add_parser("verify", help="run the cross-check suite")
    sub.add_argument("--level", choices=CHECK_LEVELS, default="fast")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "q_range_text"):
            args.q_range = _q_range(args.q_range_text)
        if hasattr(args, "range_text"):
            args.range = parse_range_spec(args.range_text)
        if hasattr(args, "radial_range_text"):
            args.radial_range = _radial_range(args.radial_range_text)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    if getattr(args, "cutoff", 1) < 1:
        parser.error("cutoff must be >= 1")
    try:
        return args.func(args)
    except GridMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    except BrokenPipeError:
        # Reader closed the pipe (e.g. `... --out - | head`); exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):
            os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

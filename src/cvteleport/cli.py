"""Command-line front end: figure data, Monte Carlo runs, verification.

Subcommands: beta-density, photon-stats, loss-gain, conditional, polarization,
sample, verify. Each table subcommand builds its own table, the q sweeps with
their optional quadrature columns and ``flag`` column included, and writes it
to --out as CSV (RFC-4180 body, 17-significant-digit floats) or JSON; '-'
writes to stdout. The metadata carries the package version and the
subcommand. --cutoff defaults to 32. Options must be spelled in full. Usage
errors, --max-n above the cutoff included, all come from the parser before
any command starts. Exit codes: 0 success, 1 verification failure, 2 usage
error, a quadrature the kernel cannot hold at the cutoff (``photon-stats``
refuses rows that miss the closed form by more than 1e-9) or an unwritable
--out.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, polarization
from .errors import CutoffViolationError, TruncationError
from .fock import _as_n_max, number_state
from .sampler import MAX_SHOTS, SamplerConfig, run_shots
from .statistics import (
    LossGainSplit,
    _closed_form_tail,
    _conditional_densities,
    loss_gain_split,
    photon_statistics_closed_form,
    photon_statistics_quadrature,
)
from .tables import OutputTable
from .teleport import _as_q, _beta_density
from .verification import CHECK_LEVELS, run_checks

__all__ = ["main", "build_parser", "parse_range_spec"]

_DEFAULT_CUTOFF = 32

# options whose value may start with '-' in the separate-word form
_RANGE_FLAGS = ("--range", "--q-range", "--radial-range")

# the most float64 points an array can hold
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize

# closed-form vs quadrature disagreement that flags a sweep row
_SWEEP_FLAG_TOLERANCE = 1e-6

# closed-form vs quadrature disagreement at which photon-stats refuses its table
_PHOTON_STATS_TOLERANCE = 1e-9


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


def _cutoff(text: str) -> int:
    try:
        return _as_n_max(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from exc


# range options keep their text, which the metadata records unchanged
def _range(text: str) -> str:
    parse_range_spec(text)
    return text


def _q_range(text: str) -> str:
    values = parse_range_spec(text)
    if values[-1] >= 1.0 or values[0] < 0.0:
        raise argparse.ArgumentTypeError(f"q range must stay within [0, 1), got {text!r}")
    return text


def _radial_range(text: str) -> str:
    if parse_range_spec(text)[0] < 0.0:
        raise argparse.ArgumentTypeError(f"radial range must start at |beta| >= 0, got {text!r}")
    return text


def _write_table(args: argparse.Namespace, columns: list[str], rows, **metadata) -> int:
    """Write one table to ``args.out`` in ``args.format``; 2 if the file cannot be written."""
    table = OutputTable(
        columns=columns,
        rows=rows,
        metadata={"version": __version__, "command": args.command, **metadata},
    )
    # the table holds its own copy; a caller's temporary array must not stay
    # alive beside the text
    del rows
    text = table.serialize(args.format)
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_beta_density(args: argparse.Namespace) -> int:
    axis = parse_range_spec(args.range)
    x, y = (grid.ravel() for grid in np.meshgrid(axis, axis, indexing="ij"))
    rows = np.column_stack((x, y, _beta_density(args.q, x + 1j * y)))
    return _write_table(args, ["x_minus", "y_plus", "density"], rows, q=args.q, range=args.range)


def cmd_photon_stats(args: argparse.Namespace) -> int:
    """The closed-form and quadrature output law of |1>; raises ``TruncationError``
    where a printed row's two values differ by more than 1e-9."""
    dist = photon_statistics_quadrature(number_state(1, args.cutoff), args.q)
    rows = [
        [float(n), photon_statistics_closed_form(args.q, n), float(dist.probabilities[n])]
        for n in range(args.max_n + 1)
    ]
    miss = max(abs(closed - quad) for _, closed, quad in rows)
    if miss > _PHOTON_STATS_TOLERANCE:
        raise TruncationError(
            f"photon-stats at q = {args.q:g} and cutoff {args.cutoff}: the quadrature misses "
            f"the closed form by {miss:.3e} > {_PHOTON_STATS_TOLERANCE:g}, as the "
            "displacement-form kernel D(r) diag(q^n) D(r)^T drops the levels above the cutoff"
        )
    return _write_table(
        args,
        ["n", "probability", "probability_quadrature"],
        rows,
        q=args.q,
        cutoff=args.cutoff,
        residual_closed_form=_closed_form_tail(args.q, args.max_n),
        residual_quadrature=dist.residual,
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Tabulate a closed form across q; ``--with-quadrature`` adds the
    quadrature columns and a ``flag`` of 1.0 where the two disagree beyond
    1e-6."""
    cutoff = args.cutoff
    # command -> (result fields, closed form, quadrature route); the fields
    # name the columns, and polarization's routes are looked up per call,
    # where bench/spans.py patches them
    fields, closed_form, quadrature = {
        "loss-gain": (
            LossGainSplit._fields,
            loss_gain_split,
            lambda q: photon_statistics_quadrature(number_state(1, cutoff), q).loss_gain(),
        ),
        "polarization": (
            polarization.PolarizationOutcomeBudget._fields,
            polarization.polarization_budget,
            lambda q: polarization.polarization_budget_numerical(q, cutoff),
        ),
    }[args.command]
    columns = ["q", *fields]
    if args.with_quadrature:
        columns += [f"{name}_quad" for name in fields] + ["flag"]
    rows = []
    for q in parse_range_spec(args.q_range).tolist():
        closed = closed_form(q)
        row = [q, *closed]
        if args.with_quadrature:
            quad = quadrature(q)
            flag = float(max(abs(c - n) for c, n in zip(closed, quad)) > _SWEEP_FLAG_TOLERANCE)
            row += [*quad, flag]
        rows.append(row)
    metadata = {"cutoff": cutoff} if args.with_quadrature else {}
    return _write_table(
        args,
        columns,
        rows,
        q_range=args.q_range,
        with_quadrature=args.with_quadrature,
        **metadata,
    )


def cmd_conditional(args: argparse.Namespace) -> int:
    radii = parse_range_spec(args.radial_range)
    total, p0, p1, p_ge2 = _conditional_densities(args.q, radii)
    rows = np.column_stack((radii, total, p1, p0, p_ge2))
    columns = ["beta_abs", "total", "p_one", "p_zero", "p_ge2"]
    return _write_table(args, columns, rows, q=args.q, radial_range=args.radial_range)


def cmd_sample(args: argparse.Namespace) -> int:
    config = SamplerConfig(
        master_seed=args.seed, shots=args.shots, q=args.q, input_state=number_state(1, args.cutoff)
    )
    result = run_shots(config)
    return _write_table(
        args,
        ["shot_index", "x_minus", "y_plus", "photon_count", "category_code"],
        np.column_stack(
            (
                np.arange(args.shots),
                result.betas.real,
                result.betas.imag,
                result.photon_counts,
                result.category_codes,
            )
        ),
        q=args.q,
        cutoff=args.cutoff,
        seed=args.seed,
        shots=args.shots,
        counts=result.counts,
        overflow=result.overflow,
    )


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


def _add_sweep(add_command, name: str, help_text: str) -> None:
    sub = add_command(name, help=help_text)
    sub.add_argument("--q-range", type=_q_range, default="0:0.99:0.01")
    sub.add_argument("--with-quadrature", action="store_true")
    sub.add_argument("--cutoff", type=_cutoff, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_sweep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Data behind truncated Fock-space teleportation of single photons",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(commands.add_parser, allow_abbrev=False)

    sub = add_command("beta-density", help="outcome density grid for the photon input")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--range", type=_range, default="-4:4:0.1", help="grid for both axes")
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_beta_density)

    sub = add_command("photon-stats", help="output photon-number distribution")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--max-n", type=_non_negative_int, default=10)
    sub.add_argument("--cutoff", type=_cutoff, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    # main checks --max-n against --cutoff and reports it with this usage line
    sub.set_defaults(func=cmd_photon_stats, usage_error=sub.error)

    _add_sweep(add_command, "loss-gain", "loss/success/gain split swept over q")

    sub = add_command("conditional", help="joint photon-count/outcome densities vs |beta|")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--radial-range", type=_radial_range, default="0:4:0.05")
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_conditional)

    _add_sweep(add_command, "polarization", "polarization outcome budget swept over q")

    sub = add_command("sample", help="seeded Monte Carlo shot list")
    sub.add_argument("--q", type=_q_value, default=0.5)
    sub.add_argument("--shots", type=_shot_count, default=10_000)
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument("--cutoff", type=_cutoff, default=_DEFAULT_CUTOFF)
    _add_table_flags(sub)
    sub.set_defaults(func=cmd_sample)

    sub = add_command("verify", help="run the cross-check suite")
    sub.add_argument("--level", choices=CHECK_LEVELS, default="fast")
    sub.set_defaults(func=cmd_verify)

    return parser


def _fuse_range_values(argv: list[str]) -> list[str]:
    """Join a range flag and a following word like '-4:4:0.1' into
    '--range=-4:4:0.1', which argparse would otherwise read as an option."""
    fused: list[str] = []
    for word in argv:
        if fused and fused[-1] in _RANGE_FLAGS and word.startswith("-") and ":" in word:
            fused[-1] += "=" + word
        else:
            fused.append(word)
    return fused


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_fuse_range_values(sys.argv[1:] if argv is None else argv))
    if args.command == "photon-stats" and args.max_n > args.cutoff:
        args.usage_error(f"--max-n {args.max_n} above cutoff {args.cutoff}")
    try:
        return args.func(args)
    except (CutoffViolationError, TruncationError) as exc:
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

"""Command-line interface: one binary, one subcommand per capability.

    treecut constants --kind C --alpha0 1 --alpha1 1
    treecut counts    --kind A --alpha0 1 --nmax 50
    treecut probs     --kind A --alpha0 1 --n 4
    treecut moments   --kind C --alpha0 1 --alpha1 1 --variant two --alpha 1 --nmax 200
    treecut limits    --regime one --alpha 0 --smax 4
    treecut simulate  --kind C --alpha0 1 --alpha1 1 --variant one --alpha 1 --n 200 \
                      --samples 10000 --seed 1
    treecut verify    --out-json report.json --out-csv rows.csv

Exit codes: 0 success, 1 validation/usage error, 2 acceptance failure
(verify only).  Exact rationals are serialized as "p/q" strings; output
is byte-deterministic for a fixed argument vector (and seed).  Every
byte of output leaves through ``_emit``, to stdout or the file an
``--out`` option names, and every CSV table is built by ``_csv``.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from .counts import MAX_EXACT_CUTOFF, compute_counts, split_distribution
from .errors import ConfigError, TreecutError
from .family import FamilySpec, make_family, parse_config, solve_constants
from .limits import (
    limit_moments_one_sided,
    limit_moments_two_sided,
    limit_moments_two_sided_half,
)
from .moments import ONE_SIDED, TWO_SIDED, TollSpec, one_sided_moments, two_sided_moments
from .simulate import EXPLICIT, SIZE_PROCESS, ExperimentConfig, run_experiment
from .verify import ROW_FIELDS, run_battery


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors (2 is reserved)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("family")
    group.add_argument("--family-config", metavar="PATH", help="key=value config block file")
    group.add_argument("--kind", choices=("A", "B", "C"))
    group.add_argument("--alpha0", help="rational, e.g. 1 or 3/2")
    group.add_argument("--d", type=int, help="arity (kind B)")
    group.add_argument("--alpha1", help="rational (kind C)")


def _family_from_args(args) -> FamilySpec:
    if args.family_config:
        with open(args.family_config, "r", encoding="utf-8") as handle:
            return parse_config(handle.read())
    if args.kind is None or args.alpha0 is None:
        raise TreecutError("specify --kind and --alpha0 (or --family-config PATH)")
    return make_family(args.kind, args.alpha0, d=args.d, alpha1=args.alpha1)


def _toll_from_args(args) -> TollSpec:
    size_one = None
    if getattr(args, "size_one_cost", None) is not None:
        text = args.size_one_cost
        try:
            size_one = Fraction(text) if "/" in text else float(text)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"--size-one-cost takes a number or p/q, got {text!r}") from None
        if isinstance(size_one, float) and size_one.is_integer():
            size_one = int(size_one)
    return TollSpec(alpha=args.alpha, size_one_cost=size_one)


def _variant(name: str) -> str:
    return ONE_SIDED if name == "one" else TWO_SIDED


def _emit(text: str, out: Optional[str] = None) -> None:
    """Write ``text`` to the file ``out``, or to stdout (flushed) without one."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line and one line per row, each cell written by ``str``."""
    return "".join(",".join(map(str, line)) + "\n" for line in (header, *rows))


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
        except ValueError:  # an integer past the interpreter's int-to-str digit limit, which Decimal does not apply
            p, q = (str(decimal.Decimal(i)) for i in (value.numerator, value.denominator))
            return f"{p}/{q}" if q != "1" else p
    return repr(float(value))


def _plain(value):
    """A Fraction as its "p/q" string, any other value as it is, for JSON."""
    return _fmt(value) if isinstance(value, Fraction) else value


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_constants(args) -> int:
    spec = _family_from_args(args)
    payload = {"kind": spec.kind, "alpha0": _fmt(spec.alpha0), "a0": _fmt(spec.a0), "a1": _fmt(spec.a1)}
    payload.update(dataclasses.asdict(solve_constants(spec)))
    if spec.kind == "B":
        payload["d"] = spec.d
    if spec.kind == "C":
        payload["alpha1"] = _fmt(spec.alpha1)
    _emit(_json(payload), args.out)
    return 0


def _cmd_counts(args) -> int:
    spec = _family_from_args(args)
    counts = compute_counts(spec, args.nmax, exact_cutoff=args.exact_cutoff)
    rows = ((n, _fmt(counts.exact_t(n)) if n <= counts.exact_limit else "", counts.log_t(n))
            for n in range(1, args.nmax + 1))
    _emit(_csv(("n", "t_exact", "ln_t"), rows), args.out)
    return 0


def _cmd_probs(args) -> int:
    spec = _family_from_args(args)
    if args.n < 2:  # checked before the counts are built to n, whose own range would name n_max
        raise ConfigError(f"n must be >= 2, got {args.n}")
    counts = compute_counts(spec, args.n, exact_cutoff=min(args.n, 2000))
    dist = split_distribution(counts, args.n, symmetrized=args.symmetrized)
    _emit(_csv(("k", "p"), ((k, _fmt(dist.prob(k))) for k in range(1, args.n))), args.out)
    return 0


def _cmd_moments(args) -> int:
    spec = _family_from_args(args)
    toll = _toll_from_args(args)
    if args.mode == "exact" and args.nmax > MAX_EXACT_CUTOFF:  # before the counts, whose error names exact_cutoff
        raise ConfigError(f"--mode exact needs --nmax <= {MAX_EXACT_CUTOFF}, got {args.nmax}")
    exact = args.mode == "exact" or (args.mode == "auto" and toll.is_rational and args.nmax <= MAX_EXACT_CUTOFF)
    counts = compute_counts(spec, args.nmax, exact_cutoff=args.nmax if exact else 1)
    maker = one_sided_moments if _variant(args.variant) == ONE_SIDED else two_sided_moments
    table = maker(counts, toll, args.nmax, args.smax, mode="rational" if exact else "float")
    rows = ((n, s, _fmt(table.moment(n, s))) for n in range(1, args.nmax + 1) for s in range(args.smax + 1))
    _emit(_csv(("n", "s", "mu"), rows), args.out)
    return 0


def _cmd_limits(args) -> int:
    if args.regime == "one":
        lm = limit_moments_one_sided(args.alpha, args.smax)
    elif args.regime == "two":
        lm = limit_moments_two_sided(args.alpha, args.smax)
    else:
        lm = limit_moments_two_sided_half(args.smax)
    _emit(_json(lm.m), args.out)
    return 0


def _cmd_simulate(args) -> int:
    spec = _family_from_args(args)
    toll = _toll_from_args(args)
    config = ExperimentConfig(
        family=spec,
        variant=_variant(args.variant),
        alpha=args.alpha,
        n=args.n,
        samples=args.samples,
        seed=args.seed,
        engine=SIZE_PROCESS if args.engine == "size" else EXPLICIT,
        workers=args.workers,
        s_max=args.smax,
        size_one_cost=toll.size_one_cost,
    )
    stats = run_experiment(config)
    echo = {"kind": spec.kind, "alpha0": _fmt(spec.alpha0), "d": spec.d, "alpha1": _plain(spec.alpha1)}
    echo.update((f.name, _plain(getattr(config, f.name))) for f in dataclasses.fields(config) if f.name != "family")
    payload = {"config": echo, "moment_estimates": stats.moment_estimates, "standard_errors": stats.standard_errors}
    _emit(_json(payload), args.out)
    return 0


def _cmd_verify(args) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = [int(part) for part in args.only.split(",") if part.strip()]
        except ValueError:
            raise ConfigError(f"--only takes comma-separated criterion numbers, got {args.only!r}") from None
    results = run_battery(numbers, report=lambda r: _emit(r.line() + "\n"))
    if args.out_json:
        payload = [
            {"criterion": r.number, "name": r.name, "passed": r.passed, "elapsed_s": round(r.elapsed, 3),
             "details": r.details}
            for r in results
        ]
        _emit(_json(payload), args.out_json)
    if args.out_csv:
        _emit(_csv(ROW_FIELDS, ([row[f] for f in ROW_FIELDS] for r in results for row in r.rows)), args.out_csv)
    failed = [r.number for r in results if not r.passed]
    _emit(f"FAILED criteria: {failed}\n" if failed else "all selected criteria passed\n")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treecut", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="singularity constants of a family")
    _add_family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("counts", help="weighted counts T_n as CSV")
    _add_family_flags(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--exact-cutoff", type=int, default=400)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("probs", help="splitting probabilities p_{n,k} as CSV")
    _add_family_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symmetrized", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_probs)

    p = sub.add_parser("moments", help="destruction-cost moment table as CSV")
    _add_family_flags(p)
    p.add_argument("--variant", choices=("one", "two"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--size-one-cost", help="cost of a size-1 component (default 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("limits", help="limit-distribution moments as JSON")
    p.add_argument("--regime", choices=("one", "two", "two-half"), required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--smax", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("simulate", help="Monte Carlo experiment as JSON")
    _add_family_flags(p)
    p.add_argument("--variant", choices=("one", "two"), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--engine", choices=("size", "explicit"), default="size")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--size-one-cost")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated criterion numbers, e.g. 1,3,10")
    p.add_argument("--out-json", help="write a JSON report here")
    p.add_argument("--out-csv", help="write convergence rows here")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreecutError, OSError, MemoryError) as exc:  # MemoryError: an array too large for the host
        sys.stderr.write(f"treecut: error: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

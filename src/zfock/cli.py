"""Command line front end.

Subcommands: ``verify`` runs the property suites from a JSON config and
emits a CSV or JSON report; ``expand`` and ``reconstruct`` convert between
saved quadratic forms and coefficient families; ``warp`` and ``qcomm``
apply the deformation and the deformed commutator to saved forms.  Forms
and families carry their scattering model: ``expand`` and ``reconstruct``
refuse a file whose model differs from the config's, and ``qcomm`` two
forms of different models.

Exit status: 0 on success, 1 when a verification check fails, 2 on
configuration or file errors.
"""

from __future__ import annotations

import argparse
import resource
import sys

from .config import ConfigError, parse_config, scattering_config
from .expansion import extract_family, reconstruct
from .io import load_family, load_form, save_family, save_form
from .suites import CheckRecord, Report, run_suites
from .warped import SkewSymmetricQ, q_commutator, warp


def _load_config(path: str):
    with open(path) as fh:
        return parse_config(fh.read())


def _format_table(report: Report) -> str:
    lines = []
    for r in report.records:
        res = "" if r.residual is None else f"{r.residual:.3e}"
        tol = "" if r.tolerance is None else f"{r.tolerance:.0e}"
        note = f"  {r.note}" if r.note else ""
        lines.append(f"{r.suite:<13} {r.check:<28} {r.status:<8} "
                     f"{res:>10} {tol:>7}{note}")
    lines.append(report.summary())
    return "\n".join(lines) + "\n"


def _print_progress(record: CheckRecord) -> None:
    """One stderr line per check: suite, check, status, seconds and the peak RSS so far."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"progress {record.suite} {record.check} {record.status} "
          f"{record.seconds:.3f} s {peak_mb:.1f} MB", file=sys.stderr, flush=True)


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    report = run_suites(cfg, _print_progress if args.progress else None)
    payload = report.to_json() if args.json else report.to_csv()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(payload)
        sys.stdout.write(_format_table(report))
    elif args.json:
        sys.stdout.write(payload)
    else:
        sys.stdout.write(_format_table(report))
    return 1 if report.failed else 0


def _require_same_lattice(grid, other, what: str) -> None:
    if grid != other:
        raise ValueError(f"{what}: lattice does not match "
                         f"(points {list(other.points)} mass {other.mass} "
                         f"vs points {list(grid.points)} mass {grid.mass})")


def _require_same_model(model, other, what: str) -> None:
    if model != other:
        raise ValueError(f"{what}: scattering model {scattering_config(other)} does not "
                         f"match {scattering_config(model)}")


def _cmd_expand(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.build_model()
    form = load_form(args.infile)
    _require_same_lattice(cfg.grid, form.grid, args.infile)
    _require_same_model(model, form.model, args.infile)
    save_family(args.out, extract_family(model, form))
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.build_model()
    family = load_family(args.infile)
    _require_same_lattice(cfg.grid, family.grid, args.infile)
    _require_same_model(model, family.model, args.infile)
    save_form(args.out, reconstruct(model, family))
    return 0


def _cmd_warp(args) -> int:
    form = load_form(args.infile)
    Q = SkewSymmetricQ(args.a, form.grid.mass)
    save_form(args.out, warp(form, Q))
    return 0


def _cmd_qcomm(args) -> int:
    lhs = load_form(args.lhs)
    rhs = load_form(args.rhs)
    _require_same_lattice(lhs.grid, rhs.grid, args.rhs)
    _require_same_model(lhs.model, rhs.model, args.rhs)
    if lhs.truncation != rhs.truncation:
        raise ValueError(f"{args.rhs}: truncation {rhs.truncation} does not "
                         f"match {args.lhs} truncation {lhs.truncation}")
    Q = SkewSymmetricQ(args.a, lhs.grid.mass)
    save_form(args.out, q_commutator(lhs, rhs, Q))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfock",
        description="Operator expansions on a truncated S-symmetric Fock space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--report", help="write the report to this path")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of CSV")
    p.add_argument("--progress", action="store_true",
                   help="print one line per check to stderr: suite, check, status, "
                        "seconds and the peak RSS so far")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="extract the coefficient family of a form")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--in", dest="infile", required=True, help="quadratic form file")
    p.add_argument("--out", required=True, help="output directory for the family")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("reconstruct", help="rebuild a form from its coefficients")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--in", dest="infile", required=True, help="coefficient family directory")
    p.add_argument("--out", required=True, help="output quadratic form file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("warp", help="apply the momentum-dependent deformation")
    p.add_argument("--a", type=float, required=True, help="deformation strength")
    p.add_argument("--in", dest="infile", required=True, help="quadratic form file")
    p.add_argument("--out", required=True, help="output quadratic form file")
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("qcomm", help="deformed commutator of two saved forms")
    p.add_argument("--a", type=float, required=True, help="deformation strength")
    p.add_argument("--lhs", required=True, help="left quadratic form file")
    p.add_argument("--rhs", required=True, help="right quadratic form file")
    p.add_argument("--out", required=True, help="output quadratic form file")
    p.set_defaults(func=_cmd_qcomm)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

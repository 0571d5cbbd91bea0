"""Command-line entry point.

Subcommands:

* ``verify``                 run a verification suite, write a JSON report
* ``solve-map``              solve a fiber map, export a CSV profile
* ``classify-completeness``  classify a conformal fiber-weight family

Exit status: 0 all checks passed, 1 a check or numerical step failed,
2 usage/configuration error.  Reports are byte-stable for a fixed
configuration and package version.  The environment variable
``TWISTORCHECK_REPORT_DIR`` sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import fibermap
from .errors import ConfigurationError, TwistorCheckError
from .report import SuiteConfig, _check_real, report_to_json, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _report_path(name: str, explicit):
    if explicit:
        return explicit
    base = os.environ.get("TWISTORCHECK_REPORT_DIR", ".")
    return os.path.join(base, name)


def _output(path: str):
    """Check now, before any work, that ``path`` names a file in an existing
    directory, and return a function that writes text to it.  Both steps
    raise ConfigurationError (exit 2): a bad path up front, and any OSError
    when writing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigurationError(f"cannot write {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ConfigurationError(f"cannot write {path}: it is a directory")

    def write(text: str):
        try:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {path}: {exc}") from exc

    return write


def _cmd_verify(args) -> int:
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable or not JSON
            raise ConfigurationError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config file {args.config} must hold a JSON object")
    # flags win over the config file
    if args.metric is not None:
        raw["metric"] = args.metric
    if args.suite is not None:
        raw["suite"] = args.suite
    if args.points is not None:
        raw["sample_count"] = args.points
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.tol_tier is not None:
        raw["tol_tier"] = args.tol_tier
    config = SuiteConfig.from_dict(raw)
    out = _report_path("twistorcheck_report.json", args.report)
    write = _output(out)
    report = run_suite(config)
    write(report_to_json(report))
    for check in report["checks"]:
        status = "SKIP" if check["mode"] == "skipped" else ("PASS" if check["pass"] else "FAIL")
        print(f"[{status}] {check['check_id']}: residual={check['max_residual']} "
              f"threshold={check['threshold']} ({check['mode']})")
    print(f"report written to {out}")
    print("overall:", "PASS" if report["overall_pass"] else "FAIL")
    return EXIT_PASS if report["overall_pass"] else EXIT_FAIL


def _cmd_solve_map(args) -> int:
    _check_real("--c", args.c)
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    out = _report_path(f"fiber_map_{args.profile}_{args.branch}.csv", args.csv)
    write = _output(out)
    emap = fibermap.solve_phi(fibermap.get_profile(args.profile), c=args.c, sign=args.sign,
                              branch=args.branch)
    samples = fibermap.anisotropy_samples(emap, args.samples)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["z", "phi", "anisotropy"])
    for row in zip(samples.z, samples.phi, samples.anisotropy):
        writer.writerow([f"{v:.16g}" for v in row])
    write(buf.getvalue())
    rep = fibermap.conformality_report(samples)
    print(f"profile={args.profile} branch={args.branch} c={args.c} "
          f"degenerate={emap.degenerate} max_anisotropy={rep.max_anisotropy} "
          f"orientation={rep.orientation}")
    print(f"csv written to {out}")
    return EXIT_PASS


def _cmd_classify(args) -> int:
    _check_real("--p", args.p)
    write = _output(args.report) if args.report else None
    verdict = fibermap.completeness_classify(args.family, p=args.p)
    payload = {
        "family": args.family,
        "p": args.p,
        "verdict": verdict.verdict,
        "fitted_exponent": verdict.fitted_exponent,
        "method": verdict.method,
        "detail": verdict.detail,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    if write:
        write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistorcheck",
        description="numerical verification of twistor-space geometry over "
                    "explicit scalar-flat Kahler charts")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--config", help="JSON configuration file")
    v.add_argument("--metric", help="fixture name (overrides config)")
    v.add_argument("--suite", help="suite name (overrides config)")
    v.add_argument("--points", type=int, help="sample count override")
    v.add_argument("--seed", type=int, help="RNG seed override")
    v.add_argument("--tol-tier", choices=("strict", "loose"), dest="tol_tier")
    v.add_argument("--report", help="output JSON path")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("solve-map", help="solve an equivariant fiber map, export CSV")
    s.add_argument("--profile", required=True, choices=sorted(fibermap.PROFILES))
    s.add_argument("--branch", default="quadrature", choices=fibermap.BRANCHES)
    s.add_argument("--c", type=float, default=0.0)
    s.add_argument("--sign", type=int, default=1, choices=(1, -1),
                   help="-1 reflects phi through the equator on every branch")
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--csv", help="output CSV path")
    s.set_defaults(func=_cmd_solve_map)

    c = sub.add_parser("classify-completeness", help="classify a fiber-weight family")
    c.add_argument("--family", default="power_pole", choices=("power_pole",))
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--report", help="optional JSON output path")
    c.set_defaults(func=_cmd_classify)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TwistorCheckError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

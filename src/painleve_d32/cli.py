"""Command-line entry point: verification suite, group explorer, integrator.

Exit codes: 0 all requested checks pass, 1 verification or domain failure,
2 usage error or an unwritable ``--out``.  ``--format records`` emits
line-delimited JSON records, one per check, suitable for golden files; text
output is deterministic for a fixed seed apart from the timing fields.
``verify`` loads with this module (the parser reads its scopes and
variants); ``numeric`` loads only for ``integrate``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import models, verify, weyl

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_ORBIT_STEPS = 4


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"cannot write {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


def _emit_reports(reports, fmt: str, out_path: Optional[str]) -> int:
    """Print the reports, then write them to ``out_path``; the exit code."""
    if fmt == "records":
        lines = [json.dumps(r.to_record(), sort_keys=True) for r in reports]
    else:
        lines = [r.format_line() for r in reports]
        npass = sum(r.passed for r in reports)
        lines.append(f"{npass}/{len(reports)} checks passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(out_path, exc)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def cmd_verify(args) -> int:
    if args.map_id is not None and args.map_id not in models.MAP_IDS:
        print(f"unknown map {args.map_id!r}", file=sys.stderr)
        return EXIT_USAGE
    reports = verify.run_scope(args.scope, variant=args.variant, map_id=args.map_id)
    if not reports:
        print(f"no checks match map {args.map_id!r}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_reports(reports, args.format, args.out)


# the options each group action takes; the others default to None and are
# refused when given
GROUP_OPTIONS = {
    "relations": ("samples", "seed", "format", "out"),
    "action": ("context",),
    "shift": ("context",),
    "orbit": ("context", "seed", "steps"),
}


def cmd_group(args) -> int:
    takes = GROUP_OPTIONS[args.action]
    for name in ("context", "samples", "seed", "steps", "format", "out"):
        if getattr(args, name) is not None and name not in takes:
            print(f"group {args.action} takes no --{name}", file=sys.stderr)
            return EXIT_USAGE
    seed = weyl.DEFAULT_SEED if args.seed is None else args.seed
    if args.action == "relations":
        if args.word is not None:
            print(f"group relations takes no word, got {args.word!r}", file=sys.stderr)
            return EXIT_USAGE
        samples = weyl.DEFAULT_SAMPLES if args.samples is None else args.samples
        if samples < 1:
            print("group relations needs --samples of at least 1", file=sys.stderr)
            return EXIT_USAGE
        reports = weyl.verify_group_relations(sample_count=samples, seed=seed)
        reports.append(weyl.translation_report())
        return _emit_reports(reports, args.format or "text", args.out)

    if args.word is None or not args.word.split():
        print("group action/shift/orbit needs a word, e.g. \"s1 s2 s1 s0\"",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        word = weyl.parse_word(args.word, args.context)
        action = weyl.parameter_action(word)
    except weyl.WordError as exc:
        print(f"unparsable word: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.action == "action":
        print(f"word: {word} (context {word.context})")
        for row in action.matrix:
            print("  " + " ".join(f"{c:3d}" for c in row))
        print(f"offset: {action.offset}")
        print(f"eta_sign: {action.eta_sign:+d}  indep_sign: {action.indep_sign:+d}")
        return EXIT_OK

    if args.action == "orbit":
        import random

        steps = DEFAULT_ORBIT_STEPS if args.steps is None else args.steps
        if steps < 1:
            print("group orbit needs --steps of at least 1", file=sys.stderr)
            return EXIT_USAGE
        point = weyl.random_point(random.Random(seed), word.context)
        print(f"word: {word} (context {word.context}, seed {seed})")
        print(f"step 0: {weyl.format_point(point, word.context)}")
        for step in range(1, steps + 1):
            try:
                point = weyl.apply_word_to_point(word, point)
            except weyl.SingularPointError as exc:
                print(f"step {step}: singular ({exc})")
                return EXIT_FAIL
            print(f"step {step}: {weyl.format_point(point, word.context)}")
        return EXIT_OK

    shift = weyl.translation_shift(word)
    if shift is None:
        print(f"word: {word} is not a pure parameter translation")
        return EXIT_FAIL
    print(f"shift: {shift.vector}  eta_sign: {shift.eta_sign:+d}  "
          f"indep_sign: {shift.indep_sign:+d}")
    return EXIT_OK


def _parse_params(text: str) -> dict[str, float]:
    params = {}
    if not text:
        return params
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        if not _:
            raise ValueError(f"malformed parameter binding {chunk!r}")
        name = name.strip()
        if name in params:
            raise ValueError(f"parameter {name!r} given twice")
        params[name] = float(value)
    return params


def cmd_integrate(args) -> int:
    from . import numeric

    try:
        params = _parse_params(args.params)
        init = [float(v) for v in args.init.split(",")]
        u0, u1 = (float(v) for v in args.span.split(","))
    except ValueError as exc:
        print(f"bad numeric arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    mode = "fixed" if args.fixed_step is not None else "adaptive"
    try:
        traj = numeric.integrate(
            args.system, params, init, (u0, u1),
            tolerances=(args.abs_tol, args.rel_tol),
            mode=mode, step=args.fixed_step,
        )
    except numeric.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (numeric.UsageError, models.UnknownModelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.out:
        try:
            traj.write_csv(args.out)
            traj.write_metadata(args.out + ".json")
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print(f"wrote {args.out} and {args.out}.json")
    print(f"system {traj.system_id}: {len(traj.times)} samples, "
          f"termination {traj.termination}")
    for integral_id in models.INTEGRAL_IDS:
        integral = models.load_integral(integral_id)
        if integral.system_id != traj.system_id:
            continue
        drift = numeric.invariant_drift(traj, integral_id)
        print(f"drift {integral_id}: {drift:.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-d32",
        description="Verification toolkit for the coupled Painleve-type system "
        "with D3(2) Weyl group symmetry.",
    )
    parser.add_argument(
        "--dump-models", action="store_true",
        help="print the whole model registry in canonical text form and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument("scope", nargs="?", default="all", choices=verify.SCOPES)
    p_verify.add_argument("--variant", default="resolved", choices=tuple(verify.VARIANTS),
                          help="disputed-object policy (default: resolve both)")
    p_verify.add_argument("--map", dest="map_id", default=None,
                          help="only checks of this map id")
    p_verify.add_argument("--format", default="text", choices=("text", "records"))
    p_verify.add_argument("--out", default=None, help="also write the report here")

    p_group = sub.add_parser("group", help="Weyl group explorer")
    p_group.add_argument("action", choices=("relations", "action", "shift", "orbit"))
    p_group.add_argument("word", nargs="?", default=None,
                         help='generator word like "s1 s2 s1 s0"')
    p_group.add_argument("--context", default=None, choices=("th1", "th2"))
    p_group.add_argument("--samples", type=int, default=None,
                         help=f"relations only (default {weyl.DEFAULT_SAMPLES})")
    p_group.add_argument("--seed", type=int, default=None,
                         help=f"relations and orbit (default {weyl.DEFAULT_SEED})")
    p_group.add_argument("--steps", type=int, default=None,
                         help=f"orbit length (default {DEFAULT_ORBIT_STEPS})")
    p_group.add_argument("--format", default=None, choices=("text", "records"),
                         help="relations only (default text)")
    p_group.add_argument("--out", default=None, help="relations only")

    p_int = sub.add_parser("integrate", help="numerically integrate a system")
    p_int.add_argument("system")
    p_int.add_argument("--params", default="",
                       help="comma list of name=value parameter bindings")
    p_int.add_argument("--init", required=True, help="comma list of initial values")
    p_int.add_argument("--span", required=True, help="u0,u1")
    p_int.add_argument("--abs-tol", type=float, default=1e-10)
    p_int.add_argument("--rel-tol", type=float, default=1e-10)
    p_int.add_argument("--fixed-step", type=float, default=None)
    p_int.add_argument("--out", default=None, help="CSV path (JSON sidecar added)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_models:
        if args.command is not None:
            parser.print_usage(sys.stderr)
            print(f"--dump-models takes no command, got {args.command!r}", file=sys.stderr)
            return EXIT_USAGE
        sys.stdout.write(models.dump_models())
        return EXIT_OK
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "group":
        return cmd_group(args)
    if args.command == "integrate":
        return cmd_integrate(args)
    parser.print_help()
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Exit codes: 0 when everything asked for passed (or was conclusively
classified), 1 when any check failed, 2 when nothing failed but something
stayed undecided, 64 for usage errors. Reports go to --out as JSON or CSV;
human-readable lines and timing go to stdout/stderr.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import scenarios
from .core import TruncationLadder
from .families import shared_direction_family
from .muckenhoupt import (
    ConstantWeight, PowerWeight, a2_estimate, plateau_candidates,
    plateau_weight,
)
from .operators import canonical_dual, reconstruct
from .report import (
    _sanitize, write_registry_csv, write_registry_json, write_report_json,
)
from .translates import (
    DEFAULT_GRID, DEFAULT_TAIL, TranslateSystem, classify_translates,
    plateau_band_system, pphi, raised_cosine_profile, unit_indicator_profile,
)
from .exponentials import ExponentialSystem, classify_exponentials

EXIT_PASS, EXIT_FAIL, EXIT_UNDECIDED, EXIT_USAGE = 0, 1, 2, 64

RECONSTRUCTION_TOL = 1e-6      # reconstruct: relative error, or its gap to 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main reports it and returns EXIT_USAGE, as for library preconditions
        raise ValueError(message)


def _translate_system(args) -> TranslateSystem:
    if args.profile == "unit-indicator":
        return TranslateSystem(unit_indicator_profile(), args.step)
    if args.profile == "raised-cosine":
        return TranslateSystem(raised_cosine_profile(), args.step)
    if args.step != 1.0:
        raise ValueError("plateau-band is defined at step 1")
    return plateau_band_system(args.k_max)


def _weight(args):
    if args.weight == "plateau":
        return plateau_weight(args.k_max, power=args.power)
    if args.weight == "power":
        return PowerWeight(args.alpha)
    return ConstantWeight(1)


def _cmd_list(args) -> int:
    for name in scenarios.scenario_names():
        print(name)
    return EXIT_PASS


def _cmd_scenario(args) -> int:
    t0 = time.perf_counter()
    names = scenarios.scenario_names()
    sweep = args.name == "all"
    if not sweep and args.name not in names:
        print(f"unknown scenario {args.name!r}; choose from: "
              f"{', '.join(names)} (or all)", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    for name in names if sweep else [args.name]:
        report = scenarios.run_scenario(name, seed=args.seed)
        if sweep:
            print(f"== {name} ==")
        for line in report.lines():
            print(line)
        reports.append(report)
    if args.out:
        if args.format == "csv":
            write_registry_csv(reports, args.out)
        elif sweep:
            write_registry_json(reports, args.out)
        else:
            write_report_json(reports[0], args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    print(f"{'registry sweep' if sweep else args.name} in "
          f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return max(r.exit_code() for r in reports)


def _cmd_classify(args) -> int:
    if args.kind == "translates":
        system = _translate_system(args)
        cls = classify_translates(system, m=args.grid, tail_terms=args.tail)
    else:
        system = ExponentialSystem(_weight(args), args.density, args.grid)
        cls = classify_exponentials(system)
    print(f"{cls.name}  [scope: {cls.scope}]")
    undecided = False
    for prop, (verdict, evidence) in sorted(cls.properties.items()):
        print(f"  {prop:<24} {verdict:<10} {_sanitize(evidence)}")
        undecided = undecided or verdict == "Undecided"
    return EXIT_UNDECIDED if undecided else EXIT_PASS


def _cmd_pphi(args) -> int:
    system = _translate_system(args)
    grid, rep = pphi(system, m=args.grid, tail_terms=args.tail)
    print(f"aliased energy of {system.name} on {args.grid} nodes")
    print(f"  ess inf (grid) : {float(rep.ess_inf)!r}")
    print(f"  ess sup (grid) : {float(rep.ess_sup)!r}")
    print(f"  zero fraction  : {float(rep.zero_fraction)!r}")
    print(f"  tail gap       : {float(rep.tail_gap)!r}"
          f"  (extrapolated: {rep.extrapolated})")
    if args.out:
        grid.to_csv(args.out)
        print(f"grid written to {args.out}", file=sys.stderr)
    return EXIT_PASS


def _family_and_level(args) -> tuple:
    """The named shared-direction family and its level (count + 1, count)."""
    power = {"diana": 0.0, "stoeva": 1.0}[args.family]
    return (shared_direction_family(power, name=args.family),
            (args.count + 1, args.count))


def _cmd_dual(args) -> int:
    fam, level = _family_and_level(args)
    d1 = canonical_dual(fam, level)
    routes = scenarios._dual_routes_check(fam, level, d1)
    print(f"dual members of {args.family} at {level}")
    print(f"  route gap (inverse vs pseudo-inverse): {routes.value!r}")
    print(f"  dual Bessel bound estimate           : {d1.bessel_bound_estimate!r}")
    print(f"  restricted lower bound               : {d1.lower_bound!r}")
    if args.out:
        np.savetxt(args.out, np.column_stack(
            [d1.vectors.real, d1.vectors.imag]), delimiter=",")
        print(f"dual vectors written to {args.out}", file=sys.stderr)
    return EXIT_PASS if routes.passed else EXIT_FAIL


def _cmd_reconstruct(args) -> int:
    fam, level = _family_and_level(args)
    # the ladder runs past the family level so probes supported inside it
    # show a flat coefficient tail
    ladder = TruncationLadder(tuple(
        (n + 1, n)
        for n in (args.count // 2, args.count, 2 * args.count,
                  4 * args.count)))
    dual = canonical_dual(fam, level)
    if args.probe == "orthogonal":
        f = np.zeros(level[0], dtype=complex)
        f[0] = 1.0
    else:
        f = scenarios._span_probe(args.seed, level[0])
    res = reconstruct(f, fam, dual, level, ladder=ladder)
    print(f"reconstruction through the canonical dual of {args.family}")
    print(f"  relative error vs probe     : {res.rel_error!r}")
    print(f"  relative error vs projection: {res.in_span_error!r}")
    print(f"  coefficient-domain verdict  : {res.coefficient_tail.kind}")
    err = abs(res.rel_error - 1.0) if args.probe == "orthogonal" \
        else res.rel_error
    return EXIT_PASS if err <= RECONSTRUCTION_TOL else EXIT_FAIL


def _cmd_a2test(args) -> int:
    weight = _weight(args)
    candidates = plateau_candidates(args.k_max) \
        if args.weight == "plateau" else None
    rep = a2_estimate(weight, candidates=candidates)
    print(f"interval-average test: {rep.verdict}")
    print(f"  constant estimate: {rep.constant_estimate!r}")
    for label, interval, ratio in rep.witnesses[:6]:
        print(f"  {label:<14} {interval:<28} ratio {ratio!r}")
    if rep.verdict == "Inconclusive":
        return EXIT_UNDECIDED
    return EXIT_PASS


def build_parser() -> _Parser:
    p = _Parser(prog="semiframe",
                description="numerical workbench for analysis/synthesis "
                            "pairs without upper frame bounds")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenario names").set_defaults(
        fn=_cmd_list)

    s = sub.add_parser("scenario", help="run a registered scenario")
    s.add_argument("name", help="scenario name, or 'all'")
    s.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    s.add_argument("--out", default=None, help="write the report here")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(fn=_cmd_scenario)

    c = sub.add_parser("classify", help="classify a system")
    c.add_argument("kind", choices=("translates", "exponentials"))
    c.add_argument("--profile", default="raised-cosine",
                   choices=("unit-indicator", "raised-cosine", "plateau-band"))
    c.add_argument("--weight", default="plateau",
                   choices=("plateau", "power", "constant"))
    c.add_argument("--step", type=float, default=1.0,
                   help="translation step")
    c.add_argument("--density", type=float, default=1.0,
                   help="frequency density of the exponentials")
    c.add_argument("--alpha", type=float, default=0.5)
    c.add_argument("--k-max", type=int, default=6, dest="k_max")
    c.add_argument("--power", type=int, default=2)
    c.add_argument("--grid", type=int, default=DEFAULT_GRID)
    c.add_argument("--tail", type=int, default=DEFAULT_TAIL)
    c.set_defaults(fn=_cmd_classify)

    g = sub.add_parser("pphi", help="sample the aliased energy function")
    g.add_argument("--profile", default="unit-indicator",
                   choices=("unit-indicator", "raised-cosine", "plateau-band"))
    g.add_argument("--step", type=float, default=1.0)
    g.add_argument("--k-max", type=int, default=6, dest="k_max")
    g.add_argument("--grid", type=int, default=DEFAULT_GRID)
    g.add_argument("--tail", type=int, default=DEFAULT_TAIL)
    g.add_argument("--out", default=None, help="write node,re,im CSV here")
    g.set_defaults(fn=_cmd_pphi)

    d = sub.add_parser("dual", help="canonical dual members, two routes")
    d.add_argument("--family", choices=("diana", "stoeva"), default="diana")
    d.add_argument("--count", type=int, default=256)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=_cmd_dual)

    r = sub.add_parser("reconstruct", help="dual-expansion round trip")
    r.add_argument("--family", choices=("diana", "stoeva"), default="diana")
    r.add_argument("--probe", choices=("in-span", "orthogonal"),
                   default="in-span")
    r.add_argument("--count", type=int, default=256)
    r.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    r.set_defaults(fn=_cmd_reconstruct)

    a = sub.add_parser("a2test", help="interval-average class test")
    a.add_argument("--weight", choices=("plateau", "power", "constant"),
                   default="plateau")
    a.add_argument("--k-max", type=int, default=6, dest="k_max")
    a.add_argument("--power", type=int, default=2)
    a.add_argument("--alpha", type=float, default=0.5)
    a.set_defaults(fn=_cmd_a2test)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ValueError as err:
        # argparse usage errors and precondition violations from the library
        # surface alike
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

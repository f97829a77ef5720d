"""Command-line front-end.

Exit codes: 0 success, 1 verification failure, 2 a parse or I/O error,
a flag out of range, an invalid MDP, a strategy that does not fit its
MDP, a search over its strategy budget, or a restricted charge whose
window has no positive exact base measure.
All numeric output is exact rational text.

A call is parsed once, by the parser of the command its first word
names.  Every other argv (no arguments, ``-h``, an unknown command, a
word before the command) goes to the full parser, which prints help or
a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import counterexamples as cx
from .blackwell import average_value, blackwell_policy, discounted_value
from .charges import IllFormedRestrict, integrate, value
from .mdp import (LEAST_HORIZON, BudgetExceeded, MdpValidationError, StrategyMismatch,
                  best_periodic, ensure_valid, payoff)
from .parsing import (ParseError, parse_charge, parse_mdp, parse_set,
                      parse_strategy, parse_stream)
from .periodic_sets import density


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def _cmd_density(args) -> int:
    print(density(parse_set(args.set)))
    return 0


def _cmd_charge_eval(args) -> int:
    print(value(parse_charge(args.charge), parse_set(args.set)))
    return 0


def _cmd_integrate(args) -> int:
    print(integrate(parse_charge(args.charge), parse_stream(args.stream)))
    return 0


def _cmd_mdp_eval(args) -> int:
    if not _flags_in_range(("--horizon", args.horizon, LEAST_HORIZON)):
        return 2
    mdp = ensure_valid(parse_mdp(_read(args.mdp)))
    sigma = parse_strategy(_read(args.strategy), mdp)
    mu = parse_charge(args.charge)
    print(payoff(mdp, sigma, mu, max_horizon=args.horizon))
    return 0


def _cmd_blackwell(args) -> int:
    mdp = ensure_valid(parse_mdp(_read(args.mdp)))
    pi = blackwell_policy(mdp)
    v = discounted_value(mdp, pi)
    avg = average_value(mdp, pi)
    print("policy:")
    for s in mdp.states:
        print(f"  {s}: {pi.action(s)}")
    print("discounted value:")
    for s in mdp.states:
        print(f"  {s}: {v[s].render()}")
    print("average value:")
    for s in mdp.states:
        print(f"  {s}: {avg[s]}")
    return 0


def _flags_in_range(*checks) -> bool:
    """Print a one-line error for the first (flag, value, least) below its least."""
    for flag, got, least in checks:
        if got < least:
            print(f"error: {flag} must be at least {least}, got {got}", file=sys.stderr)
            return False
    return True


def _cmd_search(args) -> int:
    if not _flags_in_range(("--max-period", args.max_period, 1),
                           ("--max-preperiod", args.max_preperiod, 0), ("--top", args.top, 0)):
        return 2
    mdp = ensure_valid(parse_mdp(_read(args.mdp)))
    mu = parse_charge(args.charge)
    result = best_periodic(mdp, mu, args.max_period, args.max_preperiod)
    best = result.best
    print(f"best: preperiod={best.preperiod_length} period={best.period} "
          f"value={result.best_value}")
    for phase, row in enumerate(best.rows, start=1):
        cells = " ".join(
            f"{s}:{'+'.join(a if p == 1 else f'{a}:{p}' for a, p in dist)}"
            for s, dist in row)
        print(f"  phase {phase}: {cells}")
    print("ranking:")
    for strat, val in result.ranking[:args.top]:
        print(f"  value={val} preperiod={strat.preperiod_length} "
              f"period={strat.period}")
    return 0


def _cmd_verify(args) -> int:
    if not _flags_in_range(("--nmax", args.nmax, 1), ("--max-period", args.max_period, 1),
                           ("--max-preperiod", args.max_preperiod, 0)):
        return 2
    reports = cx.verify_all(args.nmax, args.max_period, args.max_preperiod)
    ok = True
    for rep in reports:
        print(rep.text_report())
        for line in rep.machine_lines():
            print(line)
        ok = ok and rep.passed
    return 0 if ok else 1


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and its command parsers by name."""
    parser = argparse.ArgumentParser(
        prog="chargemdp",
        description="Exact MDP payoffs under finitely additive aggregation charges.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="exact natural density of a set expression")
    p.add_argument("set")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("charge-eval", help="evaluate a charge on a set")
    p.add_argument("charge")
    p.add_argument("set")
    p.set_defaults(fn=_cmd_charge_eval)

    p = sub.add_parser("integrate", help="integrate a stream against a charge")
    p.add_argument("charge")
    p.add_argument("stream")
    p.set_defaults(fn=_cmd_integrate)

    p = sub.add_parser("mdp-eval", help="payoff of a strategy file on an MDP file")
    p.add_argument("--mdp", required=True)
    p.add_argument("--strategy", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--horizon", type=int, default=4096)
    p.set_defaults(fn=_cmd_mdp_eval)

    p = sub.add_parser("blackwell", help="Blackwell-optimal pure stationary policy")
    p.add_argument("--mdp", required=True)
    p.set_defaults(fn=_cmd_blackwell)

    p = sub.add_parser("search", help="exhaustive pure periodic strategy search")
    p.add_argument("--mdp", required=True)
    p.add_argument("--charge", required=True)
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument("--max-preperiod", type=int, required=True)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("what", choices=["all"])
    p.add_argument("--nmax", type=int, default=12)
    p.add_argument("--max-period", type=int, default=8)
    p.add_argument("--max-preperiod", type=int, default=8)
    p.set_defaults(fn=_cmd_verify)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers ``run`` uses, built on first use."""
    return _build()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one pass over a call
    that names its command."""
    parser, commands = _parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MdpValidationError, StrategyMismatch, BudgetExceeded,
            IllFormedRestrict) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

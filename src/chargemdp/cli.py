"""Command-line front-end.

Exit codes: 0 success, 1 verification failure, 2 a parse or I/O error,
a flag out of range, an invalid MDP, a strategy that does not fit its
MDP, a search over its strategy budget, or a restricted charge whose
window has no positive exact base measure.
All numeric output is exact rational text.

A well-formed call is read straight from the command table; any other argv
goes to argparse, built from the same table, for its own help or usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import counterexamples as cx
from .blackwell import average_value, blackwell_policy, discounted_value
from .charges import IllFormedRestrict, integrate, value
from .mdp import (DEFAULT_HORIZON, LEAST_HORIZON, BudgetExceeded, MdpValidationError,
                  StrategyMismatch, best_periodic, ensure_valid, payoff)
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
        print(f"  phase {phase}: {_cells(row)}")
    print("ranking:")
    for strat, val in result.ranking[:args.top]:
        print(f"  value={val} preperiod={strat.preperiod_length} period={strat.period} "
              f"phases={' | '.join(_cells(row) for row in strat.rows)}")
    return 0


def _cells(row) -> str:
    """One phase row as ``s:a`` cells; a randomized cell reads ``s:a:p+b:q``."""
    return " ".join(f"{s}:{'+'.join(a if p == 1 else f'{a}:{p}' for a, p in dist)}"
                    for s, dist in row)


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


# command -> (handler, help, add_argument calls): both parsing routes come from here
_COMMANDS = {
    "density": (_cmd_density, "exact natural density of a set expression", {"set": {}}),
    "charge-eval": (_cmd_charge_eval, "evaluate a charge on a set", {"charge": {}, "set": {}}),
    "integrate": (_cmd_integrate, "integrate a stream against a charge",
                  {"charge": {}, "stream": {}}),
    "mdp-eval": (_cmd_mdp_eval, "payoff of a strategy file on an MDP file",
                 {"--mdp": {"required": True}, "--strategy": {"required": True},
                  "--charge": {"required": True},
                  "--horizon": {"type": int, "default": DEFAULT_HORIZON}}),
    "blackwell": (_cmd_blackwell, "Blackwell-optimal pure stationary policy",
                  {"--mdp": {"required": True}}),
    "search": (_cmd_search, "exhaustive pure periodic strategy search",
               {"--mdp": {"required": True}, "--charge": {"required": True},
                "--max-period": {"type": int, "required": True},
                "--max-preperiod": {"type": int, "required": True},
                "--top": {"type": int, "default": 10}}),
    "verify": (_cmd_verify, "run the bundled verification suite",
               {"what": {"choices": ["all"]}, "--nmax": {"type": int, "default": 12},
                "--max-period": {"type": int, "default": 8},
                "--max-preperiod": {"type": int, "default": 8}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chargemdp", description=(
        "Exact MDP payoffs under finitely additive aggregation charges."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, keywords in arguments.items():
            p.add_argument(name, **keywords)
        p.set_defaults(fn=fn)
    return parser


_parser = functools.cache(build_parser)  # the parser ``run`` falls back to, built on first use


def _read_call(argv: list[str]) -> argparse.Namespace | None:
    """A call's Namespace read from ``_COMMANDS``, or None unless each word is a
    positional or an exact flag, given once, with a value not starting with ``-`` that fits."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, arguments = _COMMANDS[argv[0]]
    given, words = {}, iter(argv[1:])
    positionals = (name for name in arguments if name[0] != "-")
    for word in words:
        if word[:1] == "-":
            name, value = word, next(words, "-")
        else:  # one positional too many is named "-", which is no argument
            name, value = next(positionals, "-"), word
        if name not in arguments or name in given or value[:1] == "-":
            return None
        given[name] = value
    args = argparse.Namespace(command=argv[0], fn=fn)
    for name, keywords in arguments.items():
        value = given.get(name, keywords.get("default"))
        if name in given:
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        elif keywords.get("required", name[0] != "-"):  # positionals are required
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from the table when the call is well formed."""
    if (args := _read_call(argv)) is not None:
        return args
    return _parser().parse_args(argv)


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

"""Spans at the boundaries between chargemdp's modules, recorded from outside.

``Tracer.install`` wraps every public function and every public method of
a public class of each layer module, at the defining module and at every
other chargemdp module that bound the same object by ``from ... import``
(``charges`` calls ``contract`` through its own name for it).  A call
from inside the defining module runs unwrapped, so only calls that cross
a module boundary become spans, and only while an item's root span is
open.

A span records its name, start, end and parent.  Its self time is its
duration minus the durations of its children, which run one after the
other inside it; so the self times of all spans sum to the durations of
the root spans, the traced wall time.

Counters are read from arguments and return values at the same
boundaries (ROADMAP aim 4, measured from outside the program).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("periodic_sets", "streams", "charges", "mdp", "blackwell",
          "counterexamples", "parsing", "cli")
ROOT = "bench"
CHARGE_QUERIES = ("charges.value", "charges.integrate", "charges.dyadic_value_sequence",
                  "charges.sandwich_check")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []  # per name; len(LAYERS) is the root
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.count: Counter = Counter()
        self.peak: Counter = Counter()
        self._restore: list[tuple] = []
        self.trails: dict[int, list] = {}  # query span -> sets its contracts returned
        self._root = self._name_id(ROOT, len(LAYERS))

    def _name_id(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    # ---- installing the wrappers -------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        self._epset = package.periodic_sets.EventuallyPeriodicSet
        self._stream = package.streams.RationalStream
        self._cvalue = package.charges.CValue
        self._dyadic = package.charges.DyadicLimit
        self._mix = package.charges.Mix
        for layer_index, layer in enumerate(LAYERS):
            mod = getattr(package, layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, mod.__name__, f"{layer}.{name}", layer_index)
                    for target in modules:
                        for attr, value in list(vars(target).items()):
                            if value is obj:
                                self._set(target, attr, wrapped)
                elif inspect.isclass(obj):
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            self._set(obj, mname, self._wrap(
                                method, mod.__name__, f"{layer}.{name}.{mname}", layer_index))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def _set(self, target, attr: str, value) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, fn, modname: str, name: str, layer_index: int):
        nid = self._name_id(name, layer_index)
        observe = _OBSERVERS.get(name) or _LAYER_OBSERVERS.get(LAYERS[layer_index])
        stack, names, parents = self.stack, self.span_name, self.parent
        starts, ends, count = self.start, self.end, self.count
        layer = LAYERS[layer_index]
        clock, caller = time.perf_counter, sys._getframe
        tracer = self

        def traced(*args, **kwargs):
            if len(stack) == 1 or caller(1).f_globals.get("__name__") == modname:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                count[f"{layer}.raised.{type(exc).__name__}"] += 1
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if observe is not None:
                observe(tracer, idx, args, result)
            return result

        return traced

    # ---- root spans ----------------------------------------------------------

    def root(self, fn, arg):
        """Run one timed item call as a root span.  Returns the result or
        the exception raised, the seconds taken, and whether it raised."""
        idx = len(self.span_name)
        self.span_name.append(self._root)
        self.parent.append(-1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            out, raised = fn(arg), False
        except Exception as exc:
            out, raised = exc, True
        t1 = time.perf_counter()
        self.start[idx], self.end[idx] = t0, t1
        self.stack.pop()
        return out, t1 - t0, raised

    def parent_name(self, idx: int) -> str:
        p = self.parent[idx]
        return self.names[self.span_name[p]] if p >= 0 else ""

    def parent_layer(self, idx: int) -> str:
        return self.parent_name(idx).split(".", 1)[0]

    # ---- results -------------------------------------------------------------

    def self_times(self) -> tuple[list[float], list[int], float]:
        """Self seconds and span counts per layer (root last), and the
        traced wall time (sum of root span durations)."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        own = [0.0] * (len(LAYERS) + 1)
        calls = [0] * (len(LAYERS) + 1)
        wall = 0.0
        for i in range(n):
            layer = self.layer_of[self.span_name[i]]
            own[layer] += dur[i] - child[i]
            calls[layer] += 1
            if self.parent[i] < 0:
                wall += dur[i]
        return own, calls, wall

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts and times are per traced round."""
        own, calls, wall = self.self_times()
        c, peak = self.count, self.peak
        out: dict[str, tuple[float, str]] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = (calls[i] / rounds, "count")
            out[f"{layer}.self_s"] = (own[i] / rounds, "s")
            out[f"{layer}.self_share"] = (own[i] / wall, "ratio")
        out[f"{ROOT}.self_s"] = (own[-1] / rounds, "s")
        out["periodic_sets.period_max"] = (peak["period"], "bits")
        out["periodic_sets.period_mean"] = (_ratio(c["period_sum"], c["sets"]), "bits")
        out["periodic_sets.pre_len_max"] = (peak["pre_len"], "bits")
        out["streams.cycle_len_max"] = (peak["cycle_len"], "stages")
        out["streams.levels_mean"] = (_ratio(c["levels"], c["level_calls"]), "count")
        out["charges.dyadic_steps_mean"] = (_ratio(c["dyadic_steps"], c["queries"]), "count")
        out["charges.dyadic_cycle_len_max"] = (peak["dyadic_cycle"], "steps")
        out["charges.ambiguous_ratio"] = (_ratio(c["ambiguous"], c["queries"]), "ratio")
        out["mdp.horizon_mean"] = (_ratio(c["horizon"], c["reward_streams"]), "stages")
        out["mdp.cycle_not_found"] = (c["mdp.raised.CycleNotFound"] / rounds, "count")
        out["mdp.strategies_enumerated"] = (c["strategies"] / rounds, "count")
        out["mdp.stream_cache_hit_ratio"] = (
            1 - c["search_integrals"] / c["search_streams"] if c["search_streams"] else 0.0,
            "ratio")
        out["blackwell.pi_rounds_mean"] = (_ratio(c["pi_rounds"], c["policies"]), "count")
        out["blackwell.den_degree_max"] = (peak["den_degree"], "degree")
        out["blackwell.coeff_bits_max"] = (peak["coeff_bits"], "bits")
        out["parsing.bytes"] = (c["parsed_bytes"] / rounds, "bytes")
        out["trace.spans"] = (len(self.span_name) / rounds, "count")
        return out

    def write(self, path) -> None:
        """All spans, one per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            fh.writelines(f"{names[n]}\t{s!r}\t{e!r}\t{p}\n" for n, s, e, p in zip(
                self.span_name, self.start, self.end, self.parent))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---- counters read at the boundaries -------------------------------------


def _observe_set(t: Tracer, idx, args, result) -> None:
    if isinstance(result, t._epset):
        t.count["sets"] += 1
        t.count["period_sum"] += result.period
        t.peak["period"] = max(t.peak["period"], result.period)
        t.peak["pre_len"] = max(t.peak["pre_len"], result.pre_len)


def _observe_contract(t: Tracer, idx, args, result) -> None:
    _observe_set(t, idx, args, result)
    if t.parent_layer(idx) == "charges":
        t.count["dyadic_steps"] += 1
        t.trails.setdefault(t.parent[idx], []).append(result)


def _observe_stream(t: Tracer, idx, args, result) -> None:
    if isinstance(result, t._stream):
        t.peak["cycle_len"] = max(t.peak["cycle_len"], len(result.cycle))


def _observe_stream_ctor(t: Tracer, idx, args, result) -> None:
    """mdp builds each expected-reward stream with stream(rewards[:i0],
    rewards[i0:]); the two lengths sum to the recurrence horizon."""
    _observe_stream(t, idx, args, result)
    parent = t.parent_name(idx)
    if parent.startswith("mdp."):
        t.count["reward_streams"] += 1
        t.count["horizon"] += len(args[0]) + len(args[1])
        if parent == "mdp.best_periodic":
            t.count["search_streams"] += 1


def _observe_levels(t: Tracer, idx, args, result) -> None:
    t.count["level_calls"] += 1
    t.count["levels"] += len(result)


def _dyadic_targets(t: Tracer, mu) -> int:
    """How many sets a query halves per dyadic step: one per DyadicLimit
    reachable through mixtures (restrictions resolve on their own)."""
    if isinstance(mu, t._dyadic):
        return 1
    if isinstance(mu, t._mix):
        return sum(_dyadic_targets(t, c) for _, c in mu.parts)
    return 0


def _observe_query(t: Tracer, idx, args, result) -> None:
    """Counts the query and finds its dyadic cycle from the sets its
    contract calls returned: each step halves every target once, and
    the loop stops at the first state seen before."""
    t.count["queries"] += 1
    if isinstance(result, t._cvalue):
        t.count["ambiguous"] += not result.is_exact
    trail = t.trails.pop(idx, None)
    if not trail:
        return
    if len(args) == 1:  # dyadic_value_sequence(s)
        width = 1
    else:
        width = _dyadic_targets(t, args[0])
        if isinstance(args[1], t._stream):  # integrate: one target per nonzero level
            width *= len((set(args[1].preperiod) | set(args[1].cycle)) - {0})
    states = [tuple(trail[i:i + width]) for i in range(0, len(trail), width)]
    cycle = len(states) - 1 - states.index(states[-1])
    t.peak["dyadic_cycle"] = max(t.peak["dyadic_cycle"], cycle)


def _observe_integrate(t: Tracer, idx, args, result) -> None:
    _observe_query(t, idx, args, result)
    if t.parent_name(idx) == "mdp.best_periodic":
        t.count["search_integrals"] += 1


def _observe_search(t: Tracer, idx, args, result) -> None:
    t.count["strategies"] += len(result.ranking)


def _observe_stationary(t: Tracer, idx, args, result) -> None:
    if t.parent_name(idx) == "blackwell.blackwell_policy":
        t.count["pi_rounds"] += 1


def _observe_policy(t: Tracer, idx, args, result) -> None:
    t.count["policies"] += 1


def _observe_discounted(t: Tracer, idx, args, result) -> None:
    for f in result.values():
        t.peak["den_degree"] = max(t.peak["den_degree"], f.den.degree)
        for c in f.num.coeffs + f.den.coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            t.peak["coeff_bits"] = max(t.peak["coeff_bits"], bits)


def _observe_parse(t: Tracer, idx, args, result) -> None:
    if args and isinstance(args[0], str):
        t.count["parsed_bytes"] += len(args[0].encode("utf-8"))


_OBSERVERS = {
    "periodic_sets.contract": _observe_contract,
    "streams.stream": _observe_stream_ctor,
    "streams.RationalStream.level_sets": _observe_levels,
    **{name: _observe_query for name in CHARGE_QUERIES},
    "charges.integrate": _observe_integrate,
    "mdp.best_periodic": _observe_search,
    "mdp.stationary": _observe_stationary,
    "blackwell.blackwell_policy": _observe_policy,
    "blackwell.discounted_value": _observe_discounted,
}
_LAYER_OBSERVERS = {
    "periodic_sets": _observe_set,
    "streams": _observe_stream,
    "parsing": _observe_parse,
}

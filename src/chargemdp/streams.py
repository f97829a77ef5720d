"""Eventually periodic sequences of exact rationals.

Streams are the bridge between strategies and charges: the expected
stage-reward sequence of any exactly-evaluable strategy is one of
these, and integration against a charge decomposes a stream into its
level sets (see :mod:`chargemdp.charges`).
"""

from __future__ import annotations

from fractions import Fraction

from .periodic_sets import EventuallyPeriodicSet, _build, _Frozen, _prime_factors


class RationalStream(_Frozen):
    """Canonical form: the cycle is of minimal length and the preperiod
    is of minimal length given the cycle."""

    _fields = ("preperiod", "cycle")

    def __init__(self, preperiod: tuple[Fraction, ...], cycle: tuple[Fraction, ...]):
        self.__dict__.update(preperiod=preperiod, cycle=cycle)

    def level_sets(self) -> list[tuple[Fraction, EventuallyPeriodicSet]]:
        """Pairs (value, stages where the stream equals that value),
        ordered by value.  The sets partition the stages.  One pass over
        the stream collects each value's preperiod and residue masks."""
        L, q = len(self.preperiod), len(self.cycle)
        masks: dict[Fraction, list[int]] = {}  # value -> [pre_mask, res_mask]
        for i, v in enumerate(self.preperiod):
            masks.setdefault(v, [0, 0])[0] |= 1 << i
        for t, v in enumerate(self.cycle, L + 1):
            masks.setdefault(v, [0, 0])[1] |= 1 << t % q
        return [(c, _build(L, pre, q, res))
                for c, (pre, res) in sorted(masks.items(), key=lambda item: item[0])]


def _canonical(pre, cyc) -> tuple[tuple, tuple]:
    """Minimal cycle, then minimal preperiod, of the sequence
    pre, cyc, cyc, ... -- the same two steps as the set kernel's
    canonical form, on a sequence of comparable items."""
    q = len(cyc)
    for f in _prime_factors(q):
        while q % f == 0 and cyc[q // f:q] == cyc[:q - q // f]:
            q //= f
    cyc = tuple(cyc[:q])
    n = len(pre)
    k = 0
    while k < n and pre[n - 1 - k] == cyc[-1 - k % q]:
        k += 1
    r = k % q
    return tuple(pre[:n - k]), cyc[q - r:] + cyc[:q - r]


def stream(preperiod, cycle) -> RationalStream:
    """Canonicalizing constructor.  Values that are already Fractions
    are kept as they are."""
    cyc = [v if type(v) is Fraction else Fraction(v) for v in cycle]
    if not cyc:
        raise ValueError("cycle must be nonempty")
    return RationalStream(*_canonical(
        [v if type(v) is Fraction else Fraction(v) for v in preperiod], cyc))


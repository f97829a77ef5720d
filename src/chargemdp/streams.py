"""Eventually periodic sequences of exact rationals.

Streams are the bridge between strategies and charges: the expected
stage-reward sequence of any exactly-evaluable strategy is one of
these.  This module holds the sequence data only; how a stream is
measured against a charge is :func:`chargemdp.charges.integrate`'s.
"""

from __future__ import annotations

from fractions import Fraction

from .periodic_sets import _Frozen, _prime_factors


class RationalStream(_Frozen):
    """Canonical form: the cycle is of minimal length and the preperiod
    is of minimal length given the cycle."""

    _fields = ("preperiod", "cycle")  # tuple[Fraction, ...] each


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


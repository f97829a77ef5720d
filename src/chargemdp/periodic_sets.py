"""Exact algebra of eventually periodic subsets of the positive integers.

A set is stored as a finite preperiod (explicit membership bits for the
integers 1..m) plus a residue rule: for n > m, n is a member iff
n mod p lies in a fixed residue set.  Both are packed into ints -- bit
i-1 of the preperiod mask is the integer i, bit r of the residue mask
the residue r -- which keeps the Boolean operations cheap even when the
common period is in the thousands.

Every value is canonical -- p is the least period of the tail and m is
the least preperiod compatible with it -- so representation equality
coincides with set equality.  :func:`_build` reaches that form with
mask arithmetic only:

* The least period d divides p, and a p-bit residue word has period
  p/f exactly when rotating it by p/f bits leaves it unchanged.  So for
  each prime factor f of p, p is divided by f for as long as that one
  rotate-and-compare holds; what is left is d.
* The residue rule read over 1..m (:func:`_tail_bits`: the residue word
  rotated to start at 1 and tiled to m bits) is xored with the
  preperiod bits.  The least preperiod is the ``bit_length`` of the
  xor, the last integer where the two disagree.

Three constructors are canonical by construction and skip :func:`_build`.
One residue in a d-bit word equals no proper rotation of it, so
``multiples(d)`` has least period d.  ``arithmetic(a, d)`` has no member
below a, while its residue rule holds at a - d, so its least preperiod is
max(a - d, 0).  ``complement`` negates both masks of a canonical set,
which keeps every rotation equality and every disagreement between the
preperiod and the rule, so the complement keeps the set's shape.
:func:`_build` still canonicalizes the Boolean operations, :func:`shift`
and :func:`contract`.

Aligning two sets for a Boolean operation reads the same
:func:`_tail_bits` over the longer preperiod and the common period.
:func:`contract` reads every d-th bit by strided string slices, so no
set operation reads a mask bit by bit.

Integers start at 1; membership queries for 0 are rejected.  No mask
is built or period factored past ``MASK_LIMIT`` bits, read on each call:
below it trial division takes at most about 11600 steps, and a larger
request raises :class:`BudgetExceeded` first.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

MASK_LIMIT = 2 ** 27  # bits in one preperiod or period mask


class BudgetExceeded(RuntimeError):
    """A request is larger than one of the library's configured limits."""


def _check_width(*widths: int) -> None:
    """BudgetExceeded if a mask of one of these widths passes MASK_LIMIT;
    the width is given by its bit length, so the message stays one short
    line however large it is."""
    n = max(widths)
    if n > MASK_LIMIT:
        raise BudgetExceeded(f"mask width of 2**{n.bit_length() - 1} bits or more "
                             f"exceeds limit {MASK_LIMIT}")


@lru_cache(maxsize=1024)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _tail_bits(res_mask: int, period: int, start: int, count: int) -> int:
    """The residue rule read over the integers start..start+count-1,
    packed from bit 0."""
    r = start % period
    if r:
        res_mask = (res_mask >> r) | ((res_mask << (period - r)) & ((1 << period) - 1))
    have = period
    while have < count:
        res_mask |= res_mask << have
        have *= 2
    return res_mask & ((1 << count) - 1)


class _Frozen:
    """Base of the library's immutable records.  A subclass names its
    fields in ``_fields`` and stores them in its ``__init__`` through
    ``self.__dict__``.  Equality holds between records of one class with
    equal fields, the hash is that of the field tuple, ``repr`` reads
    ``Name(field=value, ...)``, and assignment and deletion raise
    ``FrozenInstanceError``.  Written out once here rather than generated
    per class by ``dataclass``, whose code generation dominated the
    package's import time."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class EventuallyPeriodicSet(_Frozen):
    """Canonical eventually periodic subset of {1, 2, 3, ...}.

    Do not call the constructor directly with non-canonical data; use
    :func:`make` or the named constructors.
    """

    _fields = ("pre_len", "pre_mask", "period", "res_mask")

    def __init__(self, pre_len: int, pre_mask: int, period: int, res_mask: int):
        self.__dict__.update(pre_len=pre_len, pre_mask=pre_mask, period=period,
                             res_mask=res_mask)

    @property
    def residues(self) -> frozenset[int]:
        return frozenset(r for r in range(self.period) if (self.res_mask >> r) & 1)

    def __contains__(self, n: int) -> bool:
        return member(self, n)

    def __repr__(self) -> str:
        head = [n for n in range(1, self.pre_len + 1) if (self.pre_mask >> (n - 1)) & 1]
        return (f"EventuallyPeriodicSet(pre={head}, m={self.pre_len}, "
                f"p={self.period}, residues={sorted(self.residues)})")


def _build(pre_len: int, pre_mask: int, period: int, res_mask: int) -> EventuallyPeriodicSet:
    """Canonicalize: shrink to the minimal period, then the minimal preperiod."""
    if pre_len > MASK_LIMIT or period > MASK_LIMIT:  # inline: every set op ends here
        _check_width(pre_len, period)
    for f in _prime_factors(period):
        while period % f == 0:
            d = period // f
            low = res_mask & ((1 << d) - 1)
            if (res_mask >> d) | (low << (period - d)) != res_mask:
                break
            period, res_mask = d, low
    if pre_len:
        pre_len = (pre_mask ^ _tail_bits(res_mask, period, 1, pre_len)).bit_length()
        pre_mask &= (1 << pre_len) - 1
    return EventuallyPeriodicSet(pre_len, pre_mask, period, res_mask)


def make(pre_bits, period: int, residues) -> EventuallyPeriodicSet:
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    bits = list(pre_bits)
    _check_width(len(bits), period)
    res_mask = 0
    for r in residues:
        if not 0 <= r < period:
            raise ValueError(f"residue {r} out of range for period {period}")
        res_mask |= 1 << r
    pre_mask = 0
    for i, b in enumerate(bits):
        if b:
            pre_mask |= 1 << i
    return _build(len(bits), pre_mask, period, res_mask)


def empty() -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet(0, 0, 1, 0)


def naturals() -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet(0, 0, 1, 1)


def odds() -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet(0, 0, 2, 0b10)


def evens() -> EventuallyPeriodicSet:
    return EventuallyPeriodicSet(0, 0, 2, 0b01)


def multiples(d: int) -> EventuallyPeriodicSet:
    """{d, 2d, 3d, ...}"""
    if d < 1:
        raise ValueError(f"multiples() needs d >= 1, got {d}")
    _check_width(d)
    return EventuallyPeriodicSet(0, 0, d, 1)


def arithmetic(a: int, d: int) -> EventuallyPeriodicSet:
    """{a, a+d, a+2d, ...}"""
    if a < 1 or d < 1:
        raise ValueError(f"arithmetic() needs a >= 1 and d >= 1, got ({a}, {d})")
    _check_width(a - 1, d)
    return EventuallyPeriodicSet(max(a - d, 0), 0, d, 1 << (a % d))


def member(s: EventuallyPeriodicSet, n: int) -> bool:
    if n < 1:
        raise ValueError(f"membership is defined for n >= 1, got {n}")
    if n <= s.pre_len:
        return bool((s.pre_mask >> (n - 1)) & 1)
    return bool((s.res_mask >> (n % s.period)) & 1)


def _aligned(s: EventuallyPeriodicSet, t: EventuallyPeriodicSet):
    m = max(s.pre_len, t.pre_len)
    p = lcm(s.period, t.period)
    _check_width(m, p)
    return m, p, _expand(s, m, p), _expand(t, m, p)


def _expand(s: EventuallyPeriodicSet, m: int, p: int) -> tuple[int, int]:
    """The masks of s over the preperiod 1..m and the period p, where
    m >= s.pre_len and s.period divides p."""
    pre = s.pre_mask
    if m > s.pre_len:
        pre |= _tail_bits(s.res_mask, s.period, s.pre_len + 1, m - s.pre_len) << s.pre_len
    return pre, _tail_bits(s.res_mask, s.period, 0, p)


def union(s: EventuallyPeriodicSet, t: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    m, p, (pa, ra), (pb, rb) = _aligned(s, t)
    return _build(m, pa | pb, p, ra | rb)


def intersect(s: EventuallyPeriodicSet, t: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    m, p, (pa, ra), (pb, rb) = _aligned(s, t)
    return _build(m, pa & pb, p, ra & rb)


def difference(s: EventuallyPeriodicSet, t: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    m, p, (pa, ra), (pb, rb) = _aligned(s, t)
    return _build(m, pa & ~pb, p, ra & ~rb)


def complement(s: EventuallyPeriodicSet) -> EventuallyPeriodicSet:
    m, p = s.pre_len, s.period
    return EventuallyPeriodicSet(m, ~s.pre_mask & ((1 << m) - 1), p, ~s.res_mask & ((1 << p) - 1))


def shift(s: EventuallyPeriodicSet, k: int) -> EventuallyPeriodicSet:
    """{n + k : n in S}, clipped to the positive integers for k < 0."""
    p = s.period
    if k >= 0:
        pre_len = s.pre_len + k
        _check_width(pre_len)
        pre_mask = s.pre_mask << k
    else:
        j = -k
        pre_len = max(s.pre_len - j, 0)
        pre_mask = (s.pre_mask >> j) & ((1 << pre_len) - 1)
    return _build(pre_len, pre_mask, p, _tail_bits(s.res_mask, p, -k, p))


def contract(s: EventuallyPeriodicSet, d: int) -> EventuallyPeriodicSet:
    """{k : k*d in S}, read by strided slices of the masks' binary strings,
    most significant bit first.  New residue bit k is old bit k*e mod p,
    e = d mod p (or p); string position j*e - 1 mod p is old bit -j*e, so
    the word is read at stride e around its circle, lap j from position
    -(j*p + 1) mod e, e / gcd(e, p) laps.  Memory is O(m + p) for any d."""
    if d < 1:
        raise ValueError(f"contract() needs d >= 1, got {d}")
    m, p = s.pre_len, s.period
    pre = int(bin(s.pre_mask)[2:].zfill(m)[m % d::d], 2) if m >= d else 0
    word = bin(s.res_mask)[2:].zfill(p)
    e = d % p or p
    g = gcd(e, p)
    read = word[e - 1::e]
    for j in range(1, e // g):
        read += word[-(j * p + 1) % e::e]
    return _build(m // d, pre, p // g, int(read, 2))


def density(s: EventuallyPeriodicSet) -> Fraction:
    """Natural density; always exists on this algebra."""
    return Fraction(s.res_mask.bit_count(), s.period)

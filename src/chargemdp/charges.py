"""Symbolic charges and exact integration over eventually periodic sets.

A charge expression is built from:

* ``Frequency``        -- the natural-density charge on this algebra,
* ``Geometric(beta)``  -- stage t carries mass (1-beta)*beta**(t-1),
* ``PointMass(t)``     -- unit mass at a single stage,
* ``Restrict(nu, A)``  -- the conditional charge W |-> nu(W & A)/nu(A),
* ``DyadicLimit``      -- an accumulation point of the family
  ``mu_n(W) = 2**n * Frequency(W & multiples(2**n))``,
* ``Mix(...)``         -- a convex combination.

Everything except ``DyadicLimit`` evaluates to a single exact rational.
``DyadicLimit`` is not a single charge but a family of admissible
selections; a query returns the set of values realizable across them,
which is the set of values in the eventual cycle of the explicitly
computed sequence ``mu_n`` applied to the query.  On this algebra that
sequence is always eventually periodic, so the answer is finite and
exact.

A query is split once into its non-dyadic part and the total weight W
of its ``DyadicLimit`` parts.  The non-dyadic part is evaluated once
per level set of the integrand (a ``Restrict`` measures its window once
per query); each step of the dyadic family then only adds
W * sum c * density(M) over the halved level sets M, until that state
repeats.

``Geometric(n/d)`` is one integer closed form.  For a set with
preperiod m and period p it is
(d-n) * (P*(d**p - n**p) + n**m * T) / (d**m * (d**p - n**p)), where P
and T are integer Horner sums over the preperiod word and over the cycle
word read from stage m+1; the zero runs at either end of each word
become single powers.

On the streams of one shape (L, q) -- preperiod L, cycle q, neither
necessarily minimal -- every charge in the grammar is one linear
functional of the L + q stage values.  ``_stage_weights`` gives it as
integers (W, w), each atom evaluated as ``value`` does, so an exhaustive
search pays the weights once per shape and one dot product per distinct
stream instead of a level-set integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .periodic_sets import (
    EventuallyPeriodicSet,
    _build,
    _tail_bits,
    contract,
    density,
    intersect,
    member,
)
from .streams import RationalStream


class IllFormedRestrict(ValueError):
    """Restriction window has non-exact or non-positive base measure."""


class AmbiguousBase(ValueError):
    """Restriction numerator is ambiguous; candidate-wise division is not defined."""


class Charge:
    """Marker base class for charge expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Frequency(Charge):
    pass


@dataclass(frozen=True)
class Geometric(Charge):
    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if not 0 < self.beta < 1:
            raise ValueError(f"geometric factor must lie in (0,1), got {self.beta}")


@dataclass(frozen=True)
class PointMass(Charge):
    stage: int

    def __post_init__(self):
        if self.stage < 1:
            raise ValueError(f"point mass stage must be >= 1, got {self.stage}")


@dataclass(frozen=True)
class Restrict(Charge):
    base: Charge
    window: EventuallyPeriodicSet


@dataclass(frozen=True)
class DyadicLimit(Charge):
    pass


@dataclass(frozen=True)
class Mix(Charge):
    parts: tuple[tuple[Fraction, Charge], ...]

    def __post_init__(self):
        parts = tuple((Fraction(w), c) for w, c in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("mixture needs at least one component")
        if any(w <= 0 for w, _ in parts):
            raise ValueError("mixture weights must be strictly positive")
        if sum(w for w, _ in parts) != 1:
            raise ValueError("mixture weights must sum to 1")


def is_diffuse(mu: Charge) -> bool:
    if isinstance(mu, (Frequency, DyadicLimit)):
        return True
    if isinstance(mu, (Geometric, PointMass)):
        return False
    if isinstance(mu, Restrict):
        return is_diffuse(mu.base)
    if isinstance(mu, Mix):
        return all(is_diffuse(c) for _, c in mu.parts)
    raise TypeError(f"not a charge expression: {mu!r}")


@dataclass(frozen=True)
class CValue:
    """Result of a charge query: a nonempty finite set of exact rationals.

    A single candidate means the query is determined (Exact); several
    candidates mean the answer depends on which accumulation-point
    selection realizes the dyadic limit.  When ambiguous, the eventual
    cycle that produced the candidates is kept as a non-identity
    annotation (its mean is the value pinned by averaging the family
    with the frequency charge).
    """

    candidates: frozenset[Fraction]
    cycle: tuple[Fraction, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("CValue needs at least one candidate")

    @classmethod
    def exact(cls, q) -> "CValue":
        return cls(frozenset({Fraction(q)}))

    @property
    def is_exact(self) -> bool:
        return len(self.candidates) == 1

    @property
    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"value is ambiguous: {self}")
        return next(iter(self.candidates))

    @property
    def low(self) -> Fraction:
        return min(self.candidates)

    @property
    def high(self) -> Fraction:
        return max(self.candidates)

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.exact_value)
        return "{" + ", ".join(str(q) for q in sorted(self.candidates)) + "}"


def _horner(word: int, length: int, n: int, d: int) -> int:
    """sum of n**j * d**(length-1-j) over the set bits j of a word of
    length bits; the zero runs below the lowest and above the highest
    set bit become one power each."""
    if not word:
        return 0
    lo = (word & -word).bit_length() - 1
    hi = word.bit_length() - 1
    acc, dpow = 0, 1
    for bit in bin(word >> lo)[2:]:
        acc *= n
        if bit == "1":
            acc += dpow
        dpow *= d
    return acc * n ** lo * d ** (length - 1 - hi)


def _geometric_value(beta: Fraction, s: EventuallyPeriodicSet) -> Fraction:
    """With beta = n/d, preperiod m and period p, the charge of s is
    (d-n) * (P*(d**p - n**p) + n**m * T) / (d**m * (d**p - n**p)), where
    P and T are the Horner sums of the preperiod word and of the cycle
    word that starts at stage m+1."""
    n, d = beta.numerator, beta.denominator
    m, p = s.pre_len, s.period
    P = _horner(s.pre_mask, m, n, d)
    T = _horner(_tail_bits(s.res_mask, p, m + 1, p), p, n, d)
    gap = d ** p - n ** p
    return Fraction((d - n) * (P * gap + n ** m * T), d ** m * gap)


def _dyadic_weight(mu: Charge) -> Fraction:
    """Total weight of the DyadicLimit parts reachable through mixtures.
    Restrict is excluded: it resolves on its own to an exact rational
    or raises."""
    if isinstance(mu, DyadicLimit):
        return Fraction(1)
    if isinstance(mu, Mix):
        return sum((w * _dyadic_weight(c) for w, c in mu.parts), Fraction(0))
    return Fraction(0)


def _eval(mu: Charge, s: EventuallyPeriodicSet, windows: dict) -> Fraction:
    """mu at s with every DyadicLimit part counted as 0.  ``windows``
    holds each Restrict's base measure on its window, computed on first
    use in the query."""
    if isinstance(mu, Frequency):
        return density(s)
    if isinstance(mu, Geometric):
        return _geometric_value(mu.beta, s)
    if isinstance(mu, PointMass):
        return Fraction(1 if member(s, mu.stage) else 0)
    if isinstance(mu, DyadicLimit):
        return Fraction(0)
    if isinstance(mu, Restrict):
        base_on_window = windows.get(id(mu))
        if base_on_window is None:
            base = value(mu.base, mu.window)
            if not base.is_exact or base.exact_value <= 0:
                raise IllFormedRestrict(f"restriction window has base measure {base}")
            base_on_window = windows[id(mu)] = base.exact_value
        num = value(mu.base, intersect(s, mu.window))
        if not num.is_exact:
            raise AmbiguousBase(
                f"restriction base is ambiguous on the queried set: {num}")
        return num.exact_value / base_on_window
    if isinstance(mu, Mix):
        return sum((w * _eval(c, s, windows) for w, c in mu.parts), Fraction(0))
    raise TypeError(f"not a charge expression: {mu!r}")


def _resolve(const: Fraction, weight: Fraction,
             levels: list[tuple[Fraction, EventuallyPeriodicSet]]) -> CValue:
    """Run the dyadic family until its state cycles exactly.

    The n-th member of the family adds weight * sum c * density(contract(M, 2**n))
    over the levels (c, M) to the non-dyadic part ``const``; iterated
    halving of the canonical sets must revisit a state, at which point
    the family's eventual cycle of values is known exactly.
    """
    if not weight or not levels:
        return CValue.exact(const)
    state = tuple(contract(m, 2) for _, m in levels)
    seen: dict[tuple, int] = {}
    vals: list[Fraction] = []
    while state not in seen:
        seen[state] = len(vals)
        vals.append(const + weight * sum(
            (c * density(t) for (c, _), t in zip(levels, state)), Fraction(0)))
        state = tuple(contract(t, 2) for t in state)
    cyc = tuple(vals[seen[state]:])
    cands = frozenset(cyc)
    if len(cands) == 1:
        return CValue.exact(next(iter(cands)))
    return CValue(cands, cycle=cyc)


def dyadic_value_sequence(s: EventuallyPeriodicSet) -> tuple[list[Fraction], tuple[Fraction, ...]]:
    """All computed values of the dyadic family at s (from index 1)
    and the eventual cycle."""
    state = contract(s, 2)
    seen: dict[EventuallyPeriodicSet, int] = {}
    vals: list[Fraction] = []
    while state not in seen:
        seen[state] = len(vals)
        vals.append(density(state))
        state = contract(state, 2)
    return vals, tuple(vals[seen[state]:])


def value(mu: Charge, s: EventuallyPeriodicSet) -> CValue:
    return _resolve(_eval(mu, s, {}), _dyadic_weight(mu), [(Fraction(1), s)])


def integrate(mu: Charge, f: RationalStream) -> CValue:
    """Exact integral of the stream: decompose into level sets and
    evaluate the simple function c_1*I(M_1) + ... + c_k*I(M_k)."""
    levels = [(c, m) for c, m in f.level_sets() if c != 0]
    windows: dict = {}
    const = sum((c * _eval(mu, m, windows) for c, m in levels), Fraction(0))
    return _resolve(const, _dyadic_weight(mu), levels)


def _stage_weights(mu: Charge, L: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(W, w) with w[t-1] / W the charge of the stage {t} for t <= L, and
    w[L+j] / W the charge of the stages L+1+j, L+1+j+q, ... for j < q.

    These L + q atoms partition the stages, and a stream of shape (L, q)
    is the simple function that takes its t-th value on the t-th atom.
    Every charge in the grammar is finitely additive, so its integral is
    sum w_t * f_t / W, the value ``integrate`` reaches by level sets.
    Each atom is evaluated as ``value`` does, with one ``windows`` memo
    for all of them.  Callers with a zero stream need no weights, and
    must not ask for them: a null Restrict window raises here.
    """
    windows: dict = {}
    dyadic = _dyadic_weight(mu)
    atoms = [_build(L, 1 << t, 1, 0) for t in range(L)]
    atoms += [_build(L, 0, q, 1 << ((L + 1 + j) % q)) for j in range(q)]
    vals = [_resolve(_eval(mu, a, windows), dyadic, [(Fraction(1), a)]).exact_value
            for a in atoms]
    W = lcm(*(v.denominator for v in vals))
    return W, tuple(v.numerator * (W // v.denominator) for v in vals)


def sandwich_check(mu: Charge, s: EventuallyPeriodicSet) -> bool:
    """Whether every candidate agrees with the limiting frequency of s.

    On this algebra liminf and limsup of the frequency ratio coincide
    with the density, so the admissible band is a single point.
    """
    d = density(s)
    return all(c == d for c in value(mu, s).candidates)

"""Symbolic charges and exact integration over eventually periodic sets.

A charge expression is built from:

* ``Frequency``        -- the natural-density charge on this algebra,
* ``Geometric(beta)``  -- stage t carries mass (1-beta)*beta**(t-1),
* ``PointMass(t)``     -- unit mass at a single stage,
* ``Restrict(nu, A)``  -- the conditional charge W |-> nu(W & A)/nu(A),
* ``DyadicLimit``      -- an accumulation point of the family
  ``mu_n(W) = 2**n * Frequency(W & multiples(2**n))``,
* ``Mix(...)``         -- a convex combination.

Every query has exactly one value.  For ``DyadicLimit`` this is because
the family is eventually constant on this algebra: let M have period p
and residue set R, and let 2**a be the 2-part of p.  For 2**n >= 2**a,
lcm(p, 2**n) = 2**n * p / 2**a, and by the Chinese remainder theorem the
multiples of 2**n modulo that lcm map one to one onto the residues mod p
that 2**a divides.  So mu_n(M) = 2**a * #{r in R : 2**a | r} / p for
every such n, the value of ``DyadicLimit`` at M.  It is also the one
value on the cycle of the halving walk M, contract(M, 2), contract(M, 4),
... which ``dyadic_value_sequence`` follows to its first repeated state.

``Geometric(n/d)`` is one integer closed form.  For a set with
preperiod m and period p it is
(d-n) * (P*(d**p - n**p) + n**m * T) / (d**m * (d**p - n**p)), where P
and T sum n**j * d**(L-1-j) over the set bits j of an L-bit word: the
preperiod word, and the cycle word read from stage m+1.  Split in halves
at half its bit length, a b-bit sum costs O(M(b) log b), M(b) one product;
sums past ``MASK_LIMIT`` bits, (m + p) times d's bits, are refused first.

``_masses`` measures any charge on raw (pre, res) masks of one shape
(L, q) -- preperiod L, cycle q, neither necessarily minimal -- with no
set query: bit counts, the dyadic closed form above, one bit test, the
bit sums, and each Restrict window and-ed onto the masks.  ``value``
and ``integrate`` share it: ``value`` reads a set's masks on the set's
own shape, ``integrate`` a stream's nonzero levels on the stream's, and
each measures them in one call.  A bare ``DyadicLimit`` query alone
still walks ``dyadic_value_sequence``, whose ``contract`` steps the
benchmark's tracer counts.  On a stream's shape every charge is
one linear functional of the L + q stage values; ``_stage_weights``
gives it as integers (W, w), the masses of the atoms, so an exhaustive
search pays the weights once per shape and one dot product per distinct
stream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import periodic_sets
from .periodic_sets import (
    BudgetExceeded,
    EventuallyPeriodicSet,
    _check_width,
    _expand,
    _Frozen,
    _mask,
    _tail_bits,
    contract,
    density,
)
from .streams import RationalStream


class IllFormedRestrict(ValueError):
    """Restriction window has non-exact or non-positive base measure."""


class Charge(_Frozen):
    """Marker base class for charge expressions."""

    __slots__ = ()


class Frequency(Charge):
    pass


class Geometric(Charge):
    _fields = ("beta",)

    def __init__(self, beta: Fraction):
        if beta.__class__ is not Fraction:
            beta = Fraction(beta)
        if not 0 < beta.numerator < beta.denominator:
            raise ValueError(f"geometric factor must lie in (0,1), got {beta}")
        self.__dict__["beta"] = beta


class PointMass(Charge):
    _fields = ("stage",)

    def __init__(self, stage: int):
        if stage < 1:
            raise ValueError(f"point mass stage must be >= 1, got {stage}")
        self.__dict__["stage"] = stage


class Restrict(Charge):
    _fields = ("base", "window")  # a Charge, an EventuallyPeriodicSet


class DyadicLimit(Charge):
    pass


class Mix(Charge):
    _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[Fraction, Charge], ...]):
        parts = tuple((w if w.__class__ is Fraction else Fraction(w), c) for w, c in parts)
        if not parts:
            raise ValueError("mixture needs at least one component")
        if any(w.numerator <= 0 for w, _ in parts):
            raise ValueError("mixture weights must be strictly positive")
        den = lcm(*(w.denominator for w, _ in parts))
        if sum(w.numerator * (den // w.denominator) for w, _ in parts) != den:
            raise ValueError("mixture weights must sum to 1")
        self.__dict__["parts"] = parts


class CValue(Fraction):
    """The exact value of a charge query: a ``Fraction`` that compares,
    hashes, prints and does arithmetic as one (arithmetic returns a plain
    ``Fraction``).  ``exact``, ``candidates``, ``low`` and ``is_exact``
    keep the reads of the benchmark's checks working."""

    __slots__ = ()

    exact = classmethod(lambda cls, q: cls(q))
    candidates = property(lambda self: frozenset({self}))
    low = property(lambda self: self)
    is_exact = property(lambda self: True)


def _bit_sum(word: int, length: int, n: int, d: int) -> int:
    """sum of n**j * d**(length-1-j) over the set bits j of a length-bit
    word: one product for at most one set bit, else its two halves' sum."""
    if not word & (word - 1):
        j = word.bit_length() - 1
        return n ** j * d ** (length - 1 - j) if word else 0
    h = word.bit_length() >> 1
    return (_bit_sum(word & ((1 << h) - 1), h, n, d) * d ** (length - h)
            + n ** h * _bit_sum(word >> h, length - h, n, d))


def _geometric_mass(n: int, d: int, m: int, p: int, gap: int, pre: int, res: int) -> int:
    """The numerator of the module docstring's closed form, for the masks
    (pre, res) on the shape (m, p), gap = d**p - n**p."""
    P = _bit_sum(pre, m, n, d)
    T = _bit_sum(_tail_bits(res, p, m + 1, p), p, n, d)
    return (d - n) * (P * gap + n ** m * T)


def dyadic_value_sequence(s: EventuallyPeriodicSet) -> tuple[list[Fraction], tuple[Fraction, ...]]:
    """All computed values of the dyadic family at s (from index 1) and
    the values on the cycle of the walk, which are all one value (see
    the module docstring)."""
    state = contract(s, 2)
    seen: dict[EventuallyPeriodicSet, int] = {}
    vals: list[Fraction] = []
    while state not in seen:
        seen[state] = len(vals)
        vals.append(density(state))
        state = contract(state, 2)
    return vals, tuple(vals[seen[state]:])


def value(mu: Charge, s: EventuallyPeriodicSet) -> CValue:
    """The one value of mu at s: s's masks on its own shape, measured by
    one ``_masses`` call.  A bare ``DyadicLimit`` follows the halving
    walk instead, which the benchmark's tracer counts."""
    if isinstance(mu, DyadicLimit):
        return CValue(dyadic_value_sequence(s)[1][0])  # the cycle holds one value
    D, (x,) = _masses(mu, s.pre_len, s.period, [(s.pre_mask, s.res_mask)])
    return CValue(x, D)


def integrate(mu: Charge, f: RationalStream) -> CValue:
    """Exact integral of the stream, the simple function
    c_1*I(M_1) + ... + c_k*I(M_k) over its nonzero values: the levels M_i
    as masks on the stream's own shape, each built from its positions in
    one pass, measured by one ``_masses`` call, summed over the lcm of the
    c_i's denominators and reduced once.  A zero stream is 0 without
    evaluating the charge."""
    L, q = len(f.preperiod), len(f.cycle)
    # (num, den) -> its positions in the preperiod and in the cycle; Fraction
    # keys would collide, as hash(1/2**t) repeats with period 61 in t
    levels: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for i, c in enumerate(f.preperiod):
        levels.setdefault(c.as_integer_ratio(), ([], []))[0].append(i)
    for t, c in enumerate(f.cycle, L + 1):
        levels.setdefault(c.as_integer_ratio(), ([], []))[1].append(t % q)
    levels.pop((0, 1), None)  # the zero level adds nothing
    if not levels:
        return CValue(0)
    D, x = _masses(mu, L, q, [(_mask(L, pre), _mask(q, res)) for pre, res in levels.values()])
    den = lcm(*(d for _, d in levels))
    return CValue(sum(n * (den // d) * v for (n, d), v in zip(levels, x)), den * D)


def _masses(mu: Charge, m: int, p: int, parts: list) -> tuple[int, list[int]]:
    """(D, x): x[i] / D is the charge of the set with the masks
    parts[i] = (pre, res) on the shape (m, p), neither minimal.  A
    Restrict ands the parts with its window and measures it as one more."""
    if isinstance(mu, Frequency):
        return p, [res.bit_count() for _, res in parts]
    if isinstance(mu, DyadicLimit):
        two_a = p & -p  # the closed form of the module docstring
        mults = _tail_bits(1, two_a, 0, p)
        return p, [two_a * (res & mults).bit_count() for _, res in parts]
    if isinstance(mu, PointMass):
        k = mu.stage
        return 1, [(pre >> (k - 1)) & 1 if k <= m else (res >> (k % p)) & 1
                   for pre, res in parts]
    if isinstance(mu, Geometric):
        n, d = mu.beta.numerator, mu.beta.denominator
        if (m + p) * d.bit_length() > periodic_sets.MASK_LIMIT:  # before any power
            raise BudgetExceeded(f"geometric sums over {m + p} stages at {d.bit_length()} "
                                 f"bits each exceed limit {periodic_sets.MASK_LIMIT}")
        gap = d ** p - n ** p
        return d ** m * gap, [_geometric_mass(n, d, m, p, gap, pre, res) for pre, res in parts]
    if isinstance(mu, Restrict):
        M, Q = max(m, mu.window.pre_len), lcm(p, mu.window.period)
        _check_width(M, Q)
        wpre, wres = _expand(mu.window, M, Q)
        cut = [((pre | _tail_bits(res, p, m + 1, M - m) << m) & wpre,
                _tail_bits(res, p, 0, Q) & wres) for pre, res in parts]
        D, x = _masses(mu.base, M, Q, cut + [(wpre, wres)])
        if x[-1] <= 0:
            raise IllFormedRestrict(
                f"restriction window has base measure {Fraction(x[-1], D)}")
        return x[-1], x[:-1]
    if isinstance(mu, Mix):
        got = [(w, *_masses(c, m, p, parts)) for w, c in mu.parts]
        D = lcm(*(w.denominator * Dc for w, Dc, _ in got))
        scaled = [(w.numerator * (D // (w.denominator * Dc)), x) for w, Dc, x in got]
        return D, [sum(k * x[i] for k, x in scaled) for i in range(len(parts))]
    raise TypeError(f"not a charge expression: {mu!r}")


def _stage_weights(mu: Charge, L: int, q: int) -> tuple[int, tuple[int, ...]]:
    """(W, w) with w[t-1] / W the charge of the stage {t} for t <= L, and
    w[L+j] / W the charge of the stages L+1+j, L+1+j+q, ... for j < q.

    These L + q atoms partition the stages, and a stream of shape (L, q)
    is the simple function that takes its t-th value on the t-th atom.
    Every charge in the grammar is finitely additive, so its integral is
    sum w_t * f_t / W, the value ``integrate`` reaches on level masks.
    The atoms are read as masks (``_masses``), and W is the lcm of the
    reduced denominators.  Callers with a zero stream need no weights,
    and must not ask for them: a null Restrict window raises here.
    """
    atoms = [(1 << t, 0) for t in range(L)]
    atoms += [(0, 1 << ((L + 1 + j) % q)) for j in range(q)]
    D, x = _masses(mu, L, q, atoms)
    g = gcd(D, *x)
    return D // g, tuple(v // g for v in x)

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
every such n.  ``DyadicLimit`` at M is the one value on the cycle of the
halving walk M, contract(M, 2), contract(M, 4), ... which
``dyadic_value_sequence`` follows to its first repeated state.

``_eval`` gives every charge's one exact value as an integer pair
(numerator, denominator), the denominator positive and the pair not
necessarily reduced; ``value`` and ``integrate`` reduce once, into a
``CValue``, which is that ``Fraction``.  A ``Restrict`` recurses through
``_eval`` with the query's one memo, so each window is measured once per
query however deep the restrictions nest.

``Geometric(n/d)`` is one integer closed form.  For a set with
preperiod m and period p it is
(d-n) * (P*(d**p - n**p) + n**m * T) / (d**m * (d**p - n**p)), where P
and T are integer Horner sums over the preperiod word and over the cycle
word read from stage m+1; the zero runs at either end of each word
become single powers.

On the streams of one shape (L, q) -- preperiod L, cycle q, neither
necessarily minimal -- every charge in the grammar is one linear
functional of the L + q stage values.  ``_stage_weights`` gives it as
integers (W, w), read from the atoms' masks with no set query, so an
exhaustive search pays the weights once per shape and one dot product
per distinct stream instead of a level-set integral.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .periodic_sets import (
    EventuallyPeriodicSet,
    _check_width,
    _expand,
    _Frozen,
    _tail_bits,
    contract,
    density,
    intersect,
    member,
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
        beta = Fraction(beta)
        if not 0 < beta < 1:
            raise ValueError(f"geometric factor must lie in (0,1), got {beta}")
        self.__dict__["beta"] = beta


class PointMass(Charge):
    _fields = ("stage",)

    def __init__(self, stage: int):
        if stage < 1:
            raise ValueError(f"point mass stage must be >= 1, got {stage}")
        self.__dict__["stage"] = stage


class Restrict(Charge):
    _fields = ("base", "window")

    def __init__(self, base: Charge, window: EventuallyPeriodicSet):
        self.__dict__.update(base=base, window=window)


class DyadicLimit(Charge):
    pass


class Mix(Charge):
    _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[Fraction, Charge], ...]):
        parts = tuple((Fraction(w), c) for w, c in parts)
        if not parts:
            raise ValueError("mixture needs at least one component")
        if any(w <= 0 for w, _ in parts):
            raise ValueError("mixture weights must be strictly positive")
        if sum(w for w, _ in parts) != 1:
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


def _geometric_mass(n: int, d: int, m: int, p: int, gap: int, pre: int, res: int) -> int:
    """The numerator of the module docstring's closed form, for the masks
    (pre, res) on the shape (m, p), gap = d**p - n**p."""
    P = _horner(pre, m, n, d)
    T = _horner(_tail_bits(res, p, m + 1, p), p, n, d)
    return (d - n) * (P * gap + n ** m * T)


def _eval(mu: Charge, s: EventuallyPeriodicSet, windows: dict) -> tuple[int, int]:
    """The one value of mu at s as a pair (num, den), den > 0, not
    necessarily reduced.  ``windows`` holds each Restrict's base measure
    on its window, computed on first use in the query."""
    if isinstance(mu, Frequency):
        return s.res_mask.bit_count(), s.period
    if isinstance(mu, Geometric):
        n, d, m, p = mu.beta.numerator, mu.beta.denominator, s.pre_len, s.period
        gap = d ** p - n ** p
        return _geometric_mass(n, d, m, p, gap, s.pre_mask, s.res_mask), d ** m * gap
    if isinstance(mu, PointMass):
        return int(member(s, mu.stage)), 1
    if isinstance(mu, DyadicLimit):
        v = dyadic_value_sequence(s)[1][0]  # the cycle holds one value
        return v.numerator, v.denominator
    if isinstance(mu, Restrict):
        window = windows.get(id(mu))
        if window is None:
            wn, wd = _eval(mu.base, mu.window, windows)
            if wn <= 0:
                raise IllFormedRestrict(
                    f"restriction window has base measure {Fraction(wn, wd)}")
            g = gcd(wn, wd)  # unreduced, pairs double in size per nested window
            window = windows[id(mu)] = wn // g, wd // g
        n, d = _eval(mu.base, intersect(s, mu.window), windows)
        return n * window[1], d * window[0]
    if isinstance(mu, Mix):
        num, den = 0, 1
        for w, c in mu.parts:
            n, d = _eval(c, s, windows)
            num, den = _add(num, den, w.numerator * n, w.denominator * d)
        return num, den
    raise TypeError(f"not a charge expression: {mu!r}")


def _add(num: int, den: int, n: int, d: int) -> tuple[int, int]:
    """num/den + n/d as a pair over lcm(den, d), not reduced: the
    denominator of a sum stays the lcm of its terms' denominators."""
    g = gcd(den, d)
    return num * (d // g) + n * (den // g), den // g * d


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
    return CValue(*_eval(mu, s, {}))


def integrate(mu: Charge, f: RationalStream) -> CValue:
    """Exact integral of the stream: decompose into level sets and
    evaluate the simple function c_1*I(M_1) + ... + c_k*I(M_k), summed
    as integer pairs over the lcm of their denominators and reduced once."""
    windows: dict = {}
    num, den = 0, 1
    for c, m in f.level_sets():
        if c:
            n, d = _eval(mu, m, windows)
            num, den = _add(num, den, c.numerator * n, c.denominator * d)
    return CValue(num, den)


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
    sum w_t * f_t / W, the value ``integrate`` reaches by level sets.
    The atoms are read as masks (``_masses``), and W is the lcm of the
    reduced denominators.  Callers with a zero stream need no weights,
    and must not ask for them: a null Restrict window raises here.
    """
    atoms = [(1 << t, 0) for t in range(L)]
    atoms += [(0, 1 << ((L + 1 + j) % q)) for j in range(q)]
    D, x = _masses(mu, L, q, atoms)
    g = gcd(D, *x)
    return D // g, tuple(v // g for v in x)


def sandwich_check(mu: Charge, s: EventuallyPeriodicSet) -> bool:
    """Whether the value agrees with the limiting frequency of s.

    On this algebra liminf and limsup of the frequency ratio coincide
    with the density, so the admissible band is a single point.
    """
    return value(mu, s) == density(s)

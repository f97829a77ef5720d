"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from hypothesis import strategies as st

from chargemdp.blackwell import Poly, RationalFunction, _order_at_one, _sign_of_order
from chargemdp.charges import (DyadicLimit, Frequency, Geometric, IllFormedRestrict, Mix,
                               PointMass, Restrict, dyadic_value_sequence, value)
from chargemdp.mdp import _canonical_pure
from chargemdp.periodic_sets import (EventuallyPeriodicSet, _aligned, contract, density,
                                     intersect, make, member)


@st.composite
def periodic_sets(draw, max_preperiod=8, max_period=12):
    period = draw(st.integers(1, max_period))
    residues = draw(st.sets(st.integers(0, period - 1)))
    pre_len = draw(st.integers(0, max_preperiod))
    bits = draw(st.lists(st.integers(0, 1), min_size=pre_len, max_size=pre_len))
    return make(bits, period, residues)


_small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_streams(draw, max_preperiod=4, max_period=6):
    from chargemdp.streams import stream
    pre = draw(st.lists(_small_fractions, max_size=max_preperiod))
    cyc = draw(st.lists(_small_fractions, min_size=1, max_size=max_period))
    return stream(pre, cyc)


def stream_values(f, n: int) -> list[Fraction]:
    """The first n values of the stream f, materialized."""
    if n < 0:
        raise ValueError(f"need n >= 0 values, got {n}")
    L, q = len(f.preperiod), len(f.cycle)
    out = list(f.preperiod[:n])
    if n > L:
        full, rem = divmod(n - L, q)
        out.extend(list(f.cycle) * full)
        out.extend(f.cycle[:rem])
    return out


def cycle_mean(f) -> Fraction:
    """The mean of a stream's cycle: its frequency integral."""
    return sum(f.cycle, Fraction(0)) / len(f.cycle)


def pointwise_leq(f, g) -> bool:
    """f <= g at every stage (checked over preperiods plus one full
    common cycle, which is exhaustive)."""
    n = max(len(f.preperiod), len(g.preperiod)) + lcm(len(f.cycle), len(g.cycle))
    return all(a <= b for a, b in zip(stream_values(f, n), stream_values(g, n)))


def indicator(s: EventuallyPeriodicSet):
    """The 0/1 stream of membership in s."""
    from chargemdp.streams import stream
    m, p = s.pre_len, s.period
    return stream([(s.pre_mask >> i) & 1 for i in range(m)],
                  [(s.res_mask >> ((m + 1 + j) % p)) & 1 for j in range(p)])


def superlevel_set(f, threshold) -> EventuallyPeriodicSet:
    """Stages where the stream is strictly greater than the threshold."""
    thr = Fraction(threshold)
    L, q = len(f.preperiod), len(f.cycle)
    bits = [1 if v > thr else 0 for v in f.preperiod]
    residues = {(L + 1 + j) % q for j, v in enumerate(f.cycle) if v > thr}
    return make(bits, q, residues)


def random_set(rng, max_preperiod=8, max_period=12) -> EventuallyPeriodicSet:
    """Seeded random.Random twin of :func:`periodic_sets` for bulk sweeps."""
    period = rng.randint(1, max_period)
    residues = [r for r in range(period) if rng.random() < 0.5]
    pre_len = rng.randint(0, max_preperiod)
    bits = [rng.randint(0, 1) for _ in range(pre_len)]
    return make(bits, period, residues)


def random_deterministic_mdp(rng, n_states=3, n_actions=2):
    """Deterministic transitions, so pure policies have recurring streams."""
    from chargemdp.mdp import build_mdp
    states = tuple(f"s{i + 1}" for i in range(n_states))
    actions = {s: tuple(f"a{j + 1}" for j in range(n_actions)) for s in states}
    rewards = {(s, a): Fraction(rng.randint(-8, 8), rng.randint(1, 6))
               for s in states for a in actions[s]}
    transitions = {(s, a): {rng.choice(states): 1}
                   for s in states for a in actions[s]}
    return build_mdp(states, states[0], actions, rewards, transitions)


def random_stream(rng, max_preperiod=5, max_period=6):
    from chargemdp.streams import stream
    pre = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
           for _ in range(rng.randint(0, max_preperiod))]
    cyc = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
           for _ in range(rng.randint(1, max_period))]
    return stream(pre, cyc)


def ref_level_sets(f):
    """The level sets of the stream f: pairs (value, stages where f
    equals that value), ordered by value, one scan of the stream per
    distinct value.  The scan compares (numerator, denominator) pairs,
    which are equal exactly when the reduced fractions are."""
    L, q = len(f.preperiod), len(f.cycle)
    pre = [(v.numerator, v.denominator) for v in f.preperiod]
    cyc = [(v.numerator, v.denominator) for v in f.cycle]
    out = []
    for c in sorted(set(f.preperiod) | set(f.cycle)):
        key = (c.numerator, c.denominator)
        bits = [1 if v == key else 0 for v in pre]
        residues = {(L + 1 + j) % q for j, v in enumerate(cyc) if v == key}
        out.append((c, make(bits, q, residues)))
    return out


def first_tail_element(s, r: int) -> int:
    """Smallest n > preperiod with n congruent to r mod period."""
    m = s.pre_len
    return m + 1 + ((r - (m + 1)) % s.period)


def is_subset(s, t) -> bool:
    """s is a subset of t, read from their aligned bit masks."""
    _, _, (pa, ra), (pb, rb) = _aligned(s, t)
    return (pa & ~pb) == 0 and (ra & ~rb) == 0


def is_deterministic(m) -> bool:
    """Every action of the Mdp m moves to one state with probability 1."""
    return all(len(row) == 1 and row[0][1] == L for per in m.rows for L, _, row in per)


def sandwich_check(mu, s) -> bool:
    """Whether the charge's value of s equals its limiting frequency: on
    this algebra liminf and limsup of the frequency ratio coincide with
    the density, so the admissible band is a single point."""
    return value(mu, s) == density(s)


def enumerate_pure_periodic(m, max_period: int, max_preperiod: int):
    """All distinct canonical pure periodic Markov strategies of m within
    bounds, in declared action order, as the search enumerates them.
    Raises ``BudgetExceeded`` at the call, as the search does."""
    return (strat for _, _, group in _canonical_pure(m, max_period, max_preperiod)[1]
            for _, strat in group)


def enumerate_pure_stationary(m) -> list:
    """``enumerate_pure_periodic(m, 1, 0)`` as a list, under its cap."""
    return list(enumerate_pure_periodic(m, 1, 0))


def leading_sign_at_one(cs) -> int:
    """Sign just below b = 1 of the polynomial with coefficients cs, low
    order first: the sign of the lowest-order nonzero coefficient of p(1 - e)."""
    return _sign_of_order(*_order_at_one(cs))


def sign_near_one(f) -> int:
    """Sign of the RationalFunction f(b) for all b < 1 close enough to 1:
    -1, 0 or +1."""
    if f.is_zero:
        return 0
    return leading_sign_at_one(f.ints_num) * leading_sign_at_one(f.ints_den)


# ---- Fraction polynomial arithmetic: the reference the integer pairs replaced

def poly_of(*cs) -> Poly:
    """The Poly with coefficients cs, low order first, as Fractions and
    with trailing zeros dropped."""
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(tuple(cs))


def poly_eval(p: Poly, x) -> Fraction:
    """p(x) by Horner's rule over the Fractions."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_add(p: Poly, q: Poly) -> Poly:
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    return poly_of(*(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))


def poly_neg(p: Poly) -> Poly:
    return Poly(tuple(-c for c in p.coeffs))


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Poly, q: Poly) -> Poly:
    if p.is_zero or q.is_zero:
        return Poly(())
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a:
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
    return poly_of(*out)


def cleared(p: Poly) -> list[int]:
    """The coefficients of p over the lcm of their denominators."""
    d = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs]


def ref_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of Poly long division over the rationals."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem, d = list(p.coeffs), q.coeffs
    quo = [Fraction(0)] * max(len(rem) - len(d) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        k = rem[shift + len(d) - 1] / d[-1]
        quo[shift] = k
        for i, c in enumerate(d):
            rem[shift + i] -= k * c
    return poly_of(*quo), poly_of(*rem)


def monic(p: Poly) -> Poly:
    return poly_of(*(c / p.coeffs[-1] for c in p.coeffs)) if not p.is_zero else p


def ref_poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid over the rationals."""
    while not b.is_zero:
        a, b = b, ref_divmod(a, b)[1]
    return monic(a)


def ref_lowest_terms(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / den, den nonzero, divided by ``ref_poly_gcd``, with a monic
    denominator."""
    g = ref_poly_gcd(num, den)
    num, den = ref_divmod(num, g)[0], ref_divmod(den, g)[0]
    return poly_of(*(c / den.coeffs[-1] for c in num.coeffs)), monic(den)


def rational_of(num: Poly, den: Poly = poly_of(1)) -> RationalFunction:
    """num / den in lowest terms, from Fraction polynomials: the
    ``ref_lowest_terms`` pair cleared over one lcm, which leaves no common
    content."""
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    num, den = ref_lowest_terms(num, den)
    n, ints = len(num.coeffs), cleared(Poly(num.coeffs + den.coeffs))
    return RationalFunction(tuple(ints[:n]), tuple(ints[n:]))


def ref_rational_op(op: str, f, g):
    """f op g for RationalFunctions by the route the operators took before
    they ran on the stored integer pairs: monic-denominator ``Poly``s of
    Fractions, multiplied and added, then reduced by ``rational_of``."""
    if op == "-":
        return ref_rational_op("+", f, -g)
    if op == "+":
        return rational_of(poly_add(poly_mul(f.num, g.den), poly_mul(g.num, f.den)),
                           poly_mul(f.den, g.den))
    if op == "*":
        return rational_of(poly_mul(f.num, g.num), poly_mul(f.den, g.den))
    if g.is_zero:
        raise ZeroDivisionError("division by zero rational function")
    return rational_of(poly_mul(f.num, g.den), poly_mul(f.den, g.num))


# ---- the discounted value at a rational factor: the dense reference ---------

def ref_discounted_value_at(mdp, pi, beta) -> dict[str, Fraction]:
    """``discounted_value_at`` for a pure stationary pi by the route it took
    before it ran on the Bareiss kernel: Gauss-Jordan elimination of
    (I - beta*P) v = r over Fractions, on the dense views
    ``Mdp.transitions`` and ``Mdp.rewards``.  Raises ZeroDivisionError, with
    the same message, where I - beta*P is singular."""
    choice = [acts.index(pi.action(s)) for s, acts in zip(mdp.states, mdp.actions)]
    beta = Fraction(beta)
    a = [[int(i == z) - beta * p for z, p in enumerate(mdp.transitions[i][j])]
         for i, j in enumerate(choice)]
    b = [mdp.rewards[i][j] for i, j in enumerate(choice)]
    n = len(b)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError(f"I - beta*P is singular at beta = {beta}")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and a[r][col]:
                k = a[r][col] / a[col][col]
                a[r] = [x - k * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - k * b[col]
    return {s: b[i] / a[i][i] for i, s in enumerate(mdp.states)}


# ---- charges: the per-step reference --------------------------------------
#
# ``ref_value`` and ``ref_integrate`` are the first evaluator of
# ``chargemdp.charges``, kept as the tests' reference: the charge is
# evaluated whole at every dyadic step, with the dyadic values
# threaded through an iterator, one contracted set per DyadicLimit part
# per level set, and the geometric charge summed residue by residue over
# Fractions.

@lru_cache(maxsize=None)
def ref_geometric_value(beta: Fraction, s) -> Fraction:
    total = Fraction(0)
    for i in range(1, s.pre_len + 1):
        if (s.pre_mask >> (i - 1)) & 1:
            total += beta ** (i - 1)
    tail_denom = 1 - beta ** s.period
    for r in range(s.period):
        if (s.res_mask >> r) & 1:
            total += beta ** (first_tail_element(s, r) - 1) / tail_denom
    return (1 - beta) * total


def ref_collect_dyadic(mu, s, out) -> None:
    if isinstance(mu, DyadicLimit):
        out.append(s)
    elif isinstance(mu, Mix):
        for _, c in mu.parts:
            ref_collect_dyadic(c, s, out)


def ref_eval(mu, s, dyadic_vals) -> Fraction:
    if isinstance(mu, Frequency):
        return density(s)
    if isinstance(mu, Geometric):
        return ref_geometric_value(mu.beta, s)
    if isinstance(mu, PointMass):
        return Fraction(1 if member(s, mu.stage) else 0)
    if isinstance(mu, DyadicLimit):
        return next(dyadic_vals)
    if isinstance(mu, Restrict):
        base_on_window = ref_value(mu.base, mu.window)
        if base_on_window <= 0:
            raise IllFormedRestrict(
                f"restriction window has base measure {base_on_window}")
        return ref_value(mu.base, intersect(s, mu.window)) / base_on_window
    if isinstance(mu, Mix):
        return sum((w * ref_eval(c, s, dyadic_vals) for w, c in mu.parts), Fraction(0))
    raise TypeError(f"not a charge expression: {mu!r}")


def ref_resolve(evaluate, targets) -> Fraction:
    if not targets:
        return evaluate(iter(()))
    state = tuple(contract(t, 2) for t in targets)
    seen, vals = {}, []
    while state not in seen:
        seen[state] = len(vals)
        vals.append(evaluate(iter(density(c) for c in state)))
        state = tuple(contract(c, 2) for c in state)
    cands = set(vals[seen[state]:])
    assert len(cands) == 1, f"dyadic cycle holds {sorted(cands)}"
    return cands.pop()


def ref_value(mu, s) -> Fraction:
    targets = []
    ref_collect_dyadic(mu, s, targets)
    return ref_resolve(lambda dv: ref_eval(mu, s, dv), targets)


def ref_integrate(mu, f) -> Fraction:
    levels = [(c, m) for c, m in ref_level_sets(f) if c != 0]
    targets = []
    for _, m in levels:
        ref_collect_dyadic(mu, m, targets)
    return ref_resolve(
        lambda dv: sum((c * ref_eval(mu, m, dv) for c, m in levels), Fraction(0)),
        targets)


def ref_bit_sum(bits, n: int, d: int) -> int:
    """The definition of ``charges._bit_sum``: sum of n**j * d**(L-1-j)
    over the j < L with bits[j] set, L = len(bits), one term at a time."""
    total, term = 0, d ** max(len(bits) - 1, 0)
    for b in bits:
        if b:
            total += term
        term = term * n // d  # the next j's term, exact up to j = L-1
    return total


# ``ref_pair_eval`` is the integer-pair evaluator ``value`` ran before it
# read masks: each charge on the canonical set, a Restrict on the
# intersected set with each window's base measure memoised in
# ``windows`` for the query, and a pair (num, den), den > 0, not
# necessarily reduced.  It is fast enough for wide windows, where the
# per-step reference's Fraction sums take tens of seconds.  A Geometric
# is the module docstring's closed form on ``ref_bit_sum``: the
# preperiod's stages 1..m and the cycle read from stage m+1, by membership.

def ref_pair_eval(mu, s, windows: dict) -> tuple[int, int]:
    if isinstance(mu, Frequency):
        return s.res_mask.bit_count(), s.period
    if isinstance(mu, Geometric):
        n, d, m, p = mu.beta.numerator, mu.beta.denominator, s.pre_len, s.period
        gap = d ** p - n ** p
        P = ref_bit_sum([member(s, t) for t in range(1, m + 1)], n, d)
        T = ref_bit_sum([member(s, t) for t in range(m + 1, m + p + 1)], n, d)
        return (d - n) * (P * gap + n ** m * T), d ** m * gap
    if isinstance(mu, PointMass):
        return int(member(s, mu.stage)), 1
    if isinstance(mu, DyadicLimit):
        v = dyadic_value_sequence(s)[1][0]
        return v.numerator, v.denominator
    if isinstance(mu, Restrict):
        window = windows.get(id(mu))
        if window is None:
            wn, wd = ref_pair_eval(mu.base, mu.window, windows)
            if wn <= 0:
                raise IllFormedRestrict(
                    f"restriction window has base measure {Fraction(wn, wd)}")
            g = gcd(wn, wd)
            window = windows[id(mu)] = wn // g, wd // g
        n, d = ref_pair_eval(mu.base, intersect(s, mu.window), windows)
        return n * window[1], d * window[0]
    if isinstance(mu, Mix):
        num, den = 0, 1
        for w, c in mu.parts:
            n, d = ref_pair_eval(c, s, windows)
            n, d = w.numerator * n, w.denominator * d
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
        return num, den
    raise TypeError(f"not a charge expression: {mu!r}")

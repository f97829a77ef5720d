"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from chargemdp.blackwell import Poly, RationalFunction, _order_at_one, _sign_of_order
from chargemdp.mdp import enumerate_pure_periodic
from chargemdp.periodic_sets import EventuallyPeriodicSet, _aligned, make


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
    """The equality scan that the one-pass ``level_sets`` replaced: one
    scan of the stream per distinct value.  The scan compares
    (numerator, denominator) pairs, which are equal exactly when the
    reduced fractions are."""
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

"""Blackwell-optimal pure stationary policies via symbolic policy iteration.

A pure stationary policy's discounted value solves (I - bP) v = r.
Each row is scaled by the lcm of its denominators, so every entry is an
integer polynomial in b of degree at most 1, and one fraction-free
Gauss-Jordan elimination (Bareiss) over Z[b] returns det(I - bP) and
the Cramer numerators N_i, with v_i(b) = N_i(b) / det(b).  Every
division inside the elimination is exact, so no polynomial gcd runs;
``discounted_value`` reduces each N_i / det once, to a
``RationalFunction`` with a monic denominator.

"Optimal for every discount factor close enough to 1" becomes a sign
test near b = 1.  Dividing a polynomial by (b - 1) until the remainder
at 1 is nonzero gives p = (b - 1)^m q with q(1) != 0, so p has the sign
(-1)^m * sign(q(1)) just below 1.  Policy iteration applies this test
to the integer numerator of each one-step improvement, straight from
the unreduced pair (det, N).  The long-run average reward is the
residue of (1-b)*v(b) at b=1, read off the same orders and values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .mdp import Mdp, StationaryStrategy, _compile, ensure_valid, stationary


class PoleAtOne(ArithmeticError):
    """(1-b)*v(b) still has a pole at b=1; impossible for a stochastic policy."""


# ---- integer polynomials: plain int lists, low order first -------------------

def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _mul_add(acc: list[int], p: list[int], q: list[int]) -> list[int]:
    """acc + p*q, in place; acc grows as needed."""
    acc += [0] * (len(p) + len(q) - 1 - len(acc))
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                acc[i + j] += a * c
    return acc


def _primitive(cs) -> list[int]:
    """Coefficients cs (rationals or ints, low order first, trimmed) scaled
    to coprime integers."""
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return [x // g for x in ints]


def _order_at_one(cs) -> tuple[int, object]:
    """(m, q(1)) with p = (b-1)^m * q and q(1) != 0, for coefficients cs
    (low order first) of p; (0, 0) for the zero polynomial."""
    m = 0
    while cs:
        at_one = sum(cs)
        if at_one:
            return m, at_one
        # synthetic division by (b - 1), whose remainder sum(cs) is zero:
        # the quotient's coefficients are the suffix sums of cs[1:]
        cs = list(accumulate(cs[:0:-1]))[::-1]
        m += 1
    return 0, 0


def _sign_near_one(cs) -> int:
    """Sign of the polynomial with coefficients cs for all b < 1 close enough to 1."""
    m, at_one = _order_at_one(cs)
    return (-1) ** m * ((at_one > 0) - (at_one < 0))


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with Fraction coefficients, low order first."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*cs) -> "Poly":
        cs = [Fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly.of(*(c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly.of(*out)

    def scaled(self, k) -> "Poly":
        k = Fraction(k)
        return Poly.of(*(k * c for c in self.coeffs))

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.coeffs
        if len(rem) < len(d):
            return Poly(()), self
        quo = [Fraction(0)] * (len(rem) - len(d) + 1)
        for shift in range(len(rem) - len(d), -1, -1):
            k = rem[shift + len(d) - 1] / d[-1]
            if k:
                quo[shift] = k
                for i, c in enumerate(d):
                    rem[shift + i] -= k * c
        return Poly.of(*quo), Poly.of(*rem)

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def at_one_minus_eps(self) -> "Poly":
        """The polynomial p(1 - e) as a polynomial in e."""
        t = Poly.of(1, -1)
        out = Poly(())
        for c in reversed(self.coeffs):
            out = out * t + Poly.of(c)
        return out

    def leading_sign_at_one(self) -> int:
        """Sign of the lowest-order nonzero coefficient of p(1 - e)."""
        return _sign_near_one(self.coeffs)

    def render(self, var: str = "b") -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{var}")
            else:
                terms.append(f"{c}*{var}^{i}")
        return " + ".join(terms)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd, by a primitive remainder sequence over the integers."""
    x, y = _primitive(a.coeffs), _primitive(b.coeffs)
    if len(x) < len(y):
        x, y = y, x
    while y:
        # pseudo-remainder: lead(y)^k * x mod y stays in Z[b]
        lead = y[-1]
        while len(x) >= len(y):
            top, shift = x[-1], len(x) - len(y)
            x = [c * lead for c in x]
            for i, c in enumerate(y):
                x[shift + i] -= top * c
            _trim(x)
        x, y = y, _primitive(x) if x else x
    if not x:
        return Poly(())
    return Poly.of(*(Fraction(c, x[-1]) for c in x))


@dataclass(frozen=True)
class RationalFunction:
    """Reduced fraction of polynomials; denominator monic and nonzero."""

    num: Poly
    den: Poly

    @staticmethod
    def of(num: Poly, den: Poly = Poly.of(1)) -> "RationalFunction":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return RationalFunction(Poly(()), Poly.of(1))
        g = poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num = divmod(num, g)[0]
            den = divmod(den, g)[0]
        lead = den.coeffs[-1]
        return RationalFunction(num.scaled(1 / lead), den.scaled(1 / lead))

    @staticmethod
    def const(q) -> "RationalFunction":
        return RationalFunction.of(Poly.of(q))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction.of(self.num * o.den + o.num * self.den, self.den * o.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, o: "RationalFunction") -> "RationalFunction":
        return self + (-o)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        return RationalFunction.of(self.num * o.num, self.den * o.den)

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction.of(self.num * o.den, self.den * o.num)

    def evaluate(self, x) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def render(self, var: str = "b") -> str:
        return f"({self.num.render(var)})/({self.den.render(var)})"


BETA = RationalFunction.of(Poly.of(0, 1))


def sign_near_one(f: RationalFunction) -> int:
    """Sign of f(b) for all b < 1 close enough to 1: -1, 0, or +1."""
    if f.num.is_zero:
        return 0
    return f.num.leading_sign_at_one() * f.den.leading_sign_at_one()


# ---- Bareiss elimination over Z[b] ------------------------------------------

def _cross_exact(a: list[int], d: list[int], c: list[int], e: list[int],
                 prev: list[int]) -> list[int]:
    """(a*d - c*e) / prev in Z[b]; the caller guarantees prev divides it."""
    rem = _trim(_mul_add(_mul_add([], a, d), [-x for x in c], e))
    lead = prev[-1]
    quo = [0] * (len(rem) - len(prev) + 1)
    for shift in range(len(quo) - 1, -1, -1):
        k = rem[shift + len(prev) - 1] // lead
        if k:
            quo[shift] = k
            for i, x in enumerate(prev):
                rem[shift + i] -= k * x
    return quo


def _scaled_row(i: int, reward: Fraction, dist) -> list[list[int]]:
    """Row i of (I - bP | r) for one action, scaled by the lcm of its
    denominators to integer polynomials."""
    scale = lcm(reward.denominator, *(p.denominator for p in dist))
    row = [_trim([scale if i == k else 0, -(scale // p.denominator) * p.numerator])
           for k, p in enumerate(dist)]
    row.append(_trim([scale // reward.denominator * reward.numerator]))
    return row


def _cramer(mdp: Mdp, pi: StationaryStrategy) -> tuple[list[int], list[list[int]]]:
    """det(I - bP) and the Cramer numerators N_i of (I - bP) v = r, as
    integer polynomials, with v_i = N_i / det.

    Row i is scaled by the lcm L_i of its denominators, so both come out
    multiplied by prod(L_i).  Fraction-free Gauss-Jordan (Bareiss): the
    step-k update of every other row divides exactly by the step-(k-1)
    pivot.  No pivoting is needed: the step-k pivot is a leading
    principal minor of the scaled I - bP, a nonzero polynomial because
    its value at b = 0 is a product of the L_i.
    """
    rows = [_scaled_row(i, reward, dist)
            for i, (reward, dist) in enumerate(_policy_rows(mdp, pi))]
    n = len(rows)
    prev = [1]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                lead = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = _cross_exact(pivot, row[j], lead, pivot_row[j], prev)
        prev = pivot
    return prev, [row[n] for row in rows]


def _solve_linear(a, b):
    """Gauss-Jordan elimination over Fractions.  Mutates copies; returns
    the solution vector.  Raises ZeroDivisionError if ``a`` is singular."""
    n = len(b)
    a = [row[:] for row in a]
    b = b[:]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular linear system")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and a[r][col]:
                k = a[r][col] / a[col][col]
                a[r] = [x - k * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - k * b[col]
    return [b[i] / a[i][i] for i in range(n)]


def _policy_rows(mdp: Mdp, pi: StationaryStrategy):
    """(reward, transition row) of each state's action.  Raises
    StrategyMismatch where pi names no action of the MDP."""
    (phase,) = _compile(mdp, pi)[2]
    rows = []
    for i, pairs in enumerate(phase):
        (_, j), *rest = pairs
        if rest:
            raise ValueError(f"strategy is randomized at state {mdp.states[i]!r}")
        rows.append((mdp.rewards[i][j], mdp.transitions[i][j]))
    return rows


def discounted_value(mdp: Mdp, pi: StationaryStrategy) -> dict[str, RationalFunction]:
    """Per-state discounted value v(b) solving v = r + b*P*v, symbolically."""
    ensure_valid(mdp)
    det, nums = _cramer(mdp, pi)
    den = Poly.of(*det)
    return {s: RationalFunction.of(Poly.of(*num), den)
            for s, num in zip(mdp.states, nums)}


def discounted_value_at(mdp: Mdp, pi: StationaryStrategy, beta) -> dict[str, Fraction]:
    """Numeric twin of discounted_value at a fixed rational discount factor.

    Raises ZeroDivisionError if I - beta*P is singular (always at beta = 1).
    """
    ensure_valid(mdp)
    beta = Fraction(beta)
    rows = _policy_rows(mdp, pi)
    n = len(mdp.states)
    a = [[(1 if i == k else Fraction(0)) - beta * rows[i][1][k] for k in range(n)]
         for i in range(n)]
    b = [rows[i][0] for i in range(n)]
    try:
        v = _solve_linear(a, b)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"I - beta*P is singular at beta = {beta}") from None
    return {s: v[i] for i, s in enumerate(mdp.states)}


def blackwell_policy(mdp: Mdp) -> StationaryStrategy:
    """Policy iteration in the Blackwell order.

    Starts from the lexicographically first pure stationary policy;
    each round switches every improvable state to its lowest-indexed
    improving action, judged by the sign of the one-step action-value
    difference near b = 1.  Terminates because each switch strictly
    improves the policy in the Blackwell order.

    With v = N / det, the difference for action a at state s is
    (r_a*det + b*sum_z p_az*N_z - N_s) / det.  Its numerator, scaled to
    integers, is the residual r_a*det - row_a . N of the action's scaled
    row of (I - bP | r), tested directly with no rational function built.
    """
    ensure_valid(mdp)
    choice = {s: mdp.actions[i][0] for i, s in enumerate(mdp.states)}
    while True:
        pi = stationary(choice)
        det, nums = _cramer(mdp, pi)
        det_sign = _sign_near_one(det)
        changed = False
        for i, s in enumerate(mdp.states):
            for j, a in enumerate(mdp.actions[i]):
                if a == choice[s]:
                    continue
                row = _scaled_row(i, mdp.rewards[i][j], mdp.transitions[i][j])
                diff = _mul_add([], row[-1], det)
                for entry, num in zip(row, nums):
                    _mul_add(diff, [-x for x in entry], num)
                if _sign_near_one(diff) * det_sign > 0:
                    choice[s] = a
                    changed = True
                    break
        if not changed:
            return pi


def average_value(mdp: Mdp, pi: StationaryStrategy) -> dict[str, Fraction]:
    """Long-run average reward per state: lim_{b->1} (1-b) * v(b).

    With det = (b-1)^m * D and N_s = (b-1)^k * M, (1-b) * N_s / det is
    -(b-1)^(k+1-m) * M / D: a pole at 1 if k+1 < m, else its value at 1.
    """
    ensure_valid(mdp)
    det, nums = _cramer(mdp, pi)
    m, det_at_one = _order_at_one(det)
    out = {}
    for s, num in zip(mdp.states, nums):
        k, num_at_one = _order_at_one(num)
        if not num_at_one or k + 1 > m:
            out[s] = Fraction(0)
        elif k + 1 == m:
            out[s] = Fraction(-num_at_one, det_at_one)
        else:
            raise PoleAtOne(f"residual pole at 1 for state {s!r}")
    return out

"""Blackwell-optimal pure stationary policies via symbolic policy iteration.

A pure stationary policy's discounted value solves (I - bP) v = r.
Each row is scaled by the lcm L_i of its denominators, as ``Mdp.rows``
stores it, so every entry is an integer polynomial in b of degree at
most 1, and one fraction-free Gauss-Jordan elimination (Bareiss) returns
det(I - bP) and the Cramer numerators N_i, with v_i(b) = N_i(b) / det(b).

The elimination runs on plain ints at the single point b = X = 2**k
(Kronecker substitution).  Every entry it forms is, up to sign, a minor
of the scaled augmented matrix (I - bP | r), so its coefficients have
1-norm at most B = prod_i (2*L_i + |L_i*r_i|), the product of the rows'
1-norms.  With X > 2B each coefficient lies below X/2 in absolute value,
and the polynomial is read back from its value at X as balanced base-X
digits.  Evaluation at X is a ring map, so each exact polynomial
division of the elimination is an exact integer ``//``; its divisor, a
previous pivot, is a nonzero polynomial with coefficients below X/2, so
its value at X is nonzero.

``discounted_value`` reduces each N_i / det in integers: it divides
both by their gcd, then by the content (the gcd of all coefficients)
of the pair, signed so that the leading denominator coefficient is
positive.  The form is unique, so it is the one rational-function
arithmetic gives, and ``RationalFunction`` stores it as two integer
tuples: ``evaluate`` and the arithmetic operators run on them, with
one Fraction at the end of ``evaluate``, and ``num``, ``den`` and
``render`` build the monic-denominator form, one Fraction per
coefficient, on first read.

The gcd comes from the packed values the elimination already computed
(the heuristic gcd of Char, Geddes & Gonnet, J. Symbolic Computation,
1989).  Let h be the primitive part of the polynomial whose balanced
base-X digits are gamma = gcd(N_i(X), det(X)).  If h divides N_i and
det, it is their gcd: their primitive gcd is h*q, and q(X) divides the
content c of those digits, so |q(X)| <= |c| <= X/2; but every root of a
factor q of det lies below 1 + ||det||_inf in absolute value (Cauchy),
so X >= 2*||det||_inf + 2 makes |q(X)| > X/2 unless q is a constant.
The bound holds: X = 2**k > 2B >= 2*||det||_1, and X is even.  So a
constant h means the gcd is 1; otherwise h is accepted only after both
exact divisions (``_quotient``) succeed, their quotients are the reduced
pair, and a failed division falls back to a primitive remainder sequence
(``_int_gcd``).  The arithmetic operators, which have no packed values,
take that sequence.

"Optimal for every discount factor close enough to 1" becomes a sign
test near b = 1.  Dividing a polynomial by (b - 1) until the remainder
at 1 is nonzero gives p = (b - 1)^m q with q(1) != 0, so p has the sign
(-1)^m * sign(q(1)) just below 1.  Policy iteration applies this test
to the integer numerator of each one-step improvement, straight from
the unreduced pair (det, N), also packed at X.  The long-run average
reward is the residue of (1-b)*v(b) at b=1, read off the same orders
and values.

Both read the order at 1 from the packed integer (``_packed_order``).
X = 2**k is 1 mod X - 1, so p(1) is congruent to p(X) mod X - 1, and is
its balanced residue when |p(1)| < (X - 1)/2.  When p(1) = 0, p = (b - 1)q
and p(X) // (X - 1) is exactly q(X).  Every polynomial here has degree at
most n, the number of states (det at most n, each N_i at most n - 1, each
residual at most n), and the coefficients of q are suffix sums of p's, so
|q(1)| <= ||q||_1 <= n*||p||_1.  So k is sized with 2**k > 2n times the
1-norm bound: the first two orders are two residues, and after two exact
divisions every coefficient is still at most n*||p||_1 < X/2, so the rare
order >= 2 unpacks that quotient and finishes by synthetic division.

One function, ``_packed_cramer``, eliminates: it sizes k for the
improvement residuals too (2**k past 2nB times the widest row's 1-norm)
and keeps (k, det, N) on the Mdp (``Mdp._solved``, one entry keyed by
the policy's action indices), so a query sequence on the policy that
policy iteration returns eliminates nothing again.  ``_policy_choice``
resolves a strategy to those indices on every call, so a randomized,
multi-phase or mismatched one raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm, prod

from .mdp import Mdp, PeriodicMarkovStrategy, StrategyMismatch, ensure_valid, stationary
from .periodic_sets import _Frozen


class PoleAtOne(ArithmeticError):
    """(1-b)*v(b) still has a pole at b=1; impossible for a stochastic policy."""


# ---- integer polynomials: plain int lists, low order first -------------------

def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _sum(p: list[int], q: list[int]) -> list[int]:
    """Sum of two integer polynomials, trimmed."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _product(p, q) -> list[int]:
    """Product of two integer polynomials; [] when either is zero."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _primitive(cs: list[int]) -> list[int]:
    """Integer coefficients cs, low order first and trimmed, divided by
    their content."""
    g = gcd(*cs)
    return [x // g for x in cs]


def _int_gcd(x: list[int], y: list[int]) -> list[int]:
    """Primitive gcd in Z[b] of two integer polynomials, by a primitive
    remainder sequence; [] when both are zero.  Its sign is arbitrary."""
    x, y = _primitive(x), _primitive(y)
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
    return x


def _quotient(p: list[int], g: list[int]) -> list[int] | None:
    """p / g for integer polynomials with g primitive and nonzero, or None
    when g does not divide p.  By Gauss's lemma a quotient over the
    rationals has integer coefficients, so a remainder in any step's
    coefficient division already rules it out."""
    rem = p[:]
    quo = [0] * max(len(p) - len(g) + 1, 0)
    for shift in range(len(quo) - 1, -1, -1):
        k, r = divmod(rem[shift + len(g) - 1], g[-1])
        if r:
            return None
        if k:
            quo[shift] = k
            for i, c in enumerate(g):
                rem[shift + i] -= k * c
    return None if any(rem) else quo


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


def _sign_of_order(m: int, at_one) -> int:
    """Sign just below 1 of (b-1)^m * q, with q(1) = at_one."""
    return (-1) ** m * ((at_one > 0) - (at_one < 0))


def _horner(cs: list[int], p: int, q: int) -> tuple[int, int]:
    """(q^d * c(p/q), q^d) for the integer polynomial c with coefficients
    cs, low order first, of degree d >= 0."""
    *low, acc = cs
    scale = 1
    for c in reversed(low):
        scale *= q
        acc = acc * p + c * scale
    return acc, scale


class Poly(_Frozen):
    """Dense univariate polynomial with Fraction coefficients, low order
    first: the read-only form of ``RationalFunction.num`` and ``den``."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]):
        self.__dict__["coeffs"] = coeffs

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

    def evaluate(self, x) -> Fraction:
        """Horner over the integers: with the coefficients over their lcm d,
        d * self(x) is an integer polynomial; one Fraction at the end."""
        if not self.coeffs:
            return Fraction(0)
        x = Fraction(x)
        d = lcm(*(c.denominator for c in self.coeffs))
        acc, scale = _horner([c.numerator * (d // c.denominator) for c in self.coeffs],
                             x.numerator, x.denominator)
        return Fraction(acc, d * scale)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*b")
            else:
                terms.append(f"{c}*b^{i}")
        return " + ".join(terms)


class RationalFunction(_Frozen):
    """A rational function in lowest terms, as integer coefficients low
    order first: ``ints_num`` / ``ints_den``, with no common content and
    a positive leading denominator coefficient, so each function has one
    form and ``==`` and ``hash``, which compare and hash that pair,
    compare functions.  ``+``, ``-``, ``*`` and ``/`` multiply and add
    the integer pairs and reduce the result with ``_reduced``.  ``num``
    and ``den`` are its reduced form with a monic denominator, built on
    first read."""

    _fields = ("ints_num", "ints_den")

    def __init__(self, ints_num: tuple[int, ...], ints_den: tuple[int, ...]):
        self.__dict__.update(ints_num=ints_num, ints_den=ints_den)

    @staticmethod
    def const(q) -> "RationalFunction":
        q = Fraction(q)
        return RationalFunction((q.numerator,) if q else (), (q.denominator,))

    @cached_property
    def num(self) -> Poly:
        lead = self.ints_den[-1]
        return Poly(tuple(Fraction(c, lead) for c in self.ints_num))

    @cached_property
    def den(self) -> Poly:
        lead = self.ints_den[-1]
        return Poly(tuple(Fraction(c, lead) for c in self.ints_den))

    @property
    def is_zero(self) -> bool:
        return not self.ints_num

    def __add__(self, o: "RationalFunction") -> "RationalFunction":
        return _reduced(_sum(_product(self.ints_num, o.ints_den),
                             _product(o.ints_num, self.ints_den)),
                        _product(self.ints_den, o.ints_den))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(tuple(-c for c in self.ints_num), self.ints_den)

    def __sub__(self, o: "RationalFunction") -> "RationalFunction":
        return self + (-o)

    def __mul__(self, o: "RationalFunction") -> "RationalFunction":
        return _reduced(_product(self.ints_num, o.ints_num), _product(self.ints_den, o.ints_den))

    def __truediv__(self, o: "RationalFunction") -> "RationalFunction":
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return _reduced(_product(self.ints_num, o.ints_den), _product(self.ints_den, o.ints_num))

    def evaluate(self, x) -> Fraction:
        """With x = p/q, num(x) / den(x) = (A / q^m) / (B / q^n) for the
        integers (A, q^m) and (B, q^n) of ``_horner``; one Fraction at the end."""
        at = Fraction(x)
        den, den_scale = _horner(self.ints_den, at.numerator, at.denominator)
        if not den:
            raise ZeroDivisionError(f"pole at {x}")
        if not self.ints_num:
            return Fraction(0)
        num, num_scale = _horner(self.ints_num, at.numerator, at.denominator)
        return Fraction(num * den_scale, den * num_scale)

    def render(self) -> str:
        return f"({self.num.render()})/({self.den.render()})"


def _packed_cofactors(num: list[int], den: list[int], gamma: int,
                      k: int) -> tuple[list[int], list[int]] | None:
    """(num / g, den / g) for g the gcd of integer polynomials num and den,
    den nonzero, from gamma = gcd(num(X), den(X)) at X = 2**k with
    X >= 2*||den||_inf + 2; None when the candidate from gamma's balanced
    base-X digits fails to divide both (see the module docstring)."""
    h = _unpack(gamma, k)
    if len(h) == 1:
        return num, den
    h = _primitive(h)
    if (num_quo := _quotient(num, h)) is None or (den_quo := _quotient(den, h)) is None:
        return None
    return num_quo, den_quo


def _reduced(num: list[int], den: list[int], packed: tuple[int, int] | None = None
             ) -> RationalFunction:
    """num / den, integer polynomials with den nonzero, in lowest terms:
    divided by their gcd, then by the content of the pair, signed so that
    den leads positive.  ``packed`` = (gamma, k), as ``_packed_cofactors``
    takes them, is tried before the remainder sequence."""
    if not num:
        return RationalFunction((), (1,))
    pair = _packed_cofactors(num, den, *packed) if packed else None
    if pair is None:
        g = _int_gcd(num, den)
        pair = (_quotient(num, g), _quotient(den, g)) if len(g) > 1 else (num, den)
    num, den = pair
    c = gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    return RationalFunction(tuple(x // c for x in num), tuple(x // c for x in den))


# ---- Bareiss elimination at b = 2**k ----------------------------------------

def _norm(row) -> int:
    """1-norm of a scaled row's coefficients: L + sum(L*p_z) + |L*r|."""
    return 2 * row[0] + abs(row[1])


def _unpack(v: int, k: int) -> list[int]:
    """Coefficients, low order first and trimmed, of the polynomial whose
    value at X = 2**k is v, given each coefficient is below X/2 in
    absolute value (balanced base-X digits)."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> k
    return out


def _packed_order(v: int, k: int) -> tuple[int, int]:
    """``_order_at_one`` of the polynomial p whose value at X = 2**k is v,
    given X > 2*n*||p||_1 for some n >= max(deg p, 1): p(1) and, when
    p(1) = 0, q(1) for p = (b-1)*q are balanced residues mod X - 1 (see
    the module docstring)."""
    if not v:
        return 0, 0
    mod = (1 << k) - 1
    for m in (0, 1):
        at_one = v % mod
        if at_one:
            return m, at_one - mod if at_one > mod >> 1 else at_one
        v //= mod
    m, at_one = _order_at_one(_unpack(v, k))
    return m + 2, at_one


def _bareiss_at(rows, k: int) -> tuple[int, list[int]]:
    """det and the Cramer numerators N_i of the scaled rows, as their
    values at b = 2**k, which must exceed twice every minor's 1-norm.

    Fraction-free Gauss-Jordan: the step-j update of every other row
    divides exactly by the step-(j-1) pivot.  No pivoting is needed: the
    step-j pivot is a leading principal minor of the scaled I - bP, a
    nonzero polynomial because its value at b = 0 is a product of the L_i.
    """
    n = len(rows)
    m = []
    for i, (scale, rhs, sparse) in enumerate(rows):
        row = [0] * n + [rhs]
        row[i] = scale
        for z, w in sparse:
            row[z] -= w << k
        m.append(row)
    prev = 1
    for j, pivot_row in enumerate(m):
        pivot = pivot_row[j]
        for i, row in enumerate(m):
            if i != j:
                lead = row[j]
                for c in range(j + 1, n + 1):
                    row[c] = (pivot * row[c] - lead * pivot_row[c]) // prev
        prev = pivot
    return prev, [row[n] for row in m]


def _packed_cramer(mdp: Mdp, choice: tuple[int, ...],
                   widest: int | None = None) -> tuple[int, int, list[int]]:
    """(k, det, nums): det(I - bP) and the Cramer numerators N_i of
    (I - bP) v = r under the policy of action indices ``choice``, with
    v_i = N_i / det, as their values at b = 2**k.  The caller must not
    change nums.  ``widest`` is the largest 1-norm of any row of the MDP,
    found here when not given.

    Row i is scaled by the lcm L_i of its denominators, as ``Mdp.rows``
    stores it, so both come out multiplied by prod(L_i).  Both are minors of
    the scaled augmented matrix, of 1-norm at most the product B of the
    rows' 1-norms, and of degree at most n, and so is every improvement
    residual after one more factor ``widest``: 2**k > 2nB * widest recovers
    all of them from one elimination there and reads their orders at 1 by
    residues.  The result is ``mdp._solved``'s when choice matches it, and
    replaces it otherwise.
    """
    if (solved := mdp._solved.get(choice)) is None:
        if widest is None:
            widest = max(_norm(row) for per in mdp.rows for row in per)
        rows = [per[j] for per, j in zip(mdp.rows, choice)]
        k = (prod(map(_norm, rows)) * widest * len(rows)).bit_length() + 1
        solved = k, *_bareiss_at(rows, k)
        mdp._solved.clear()
        mdp._solved[choice] = solved
    return solved


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


def _policy_choice(mdp: Mdp, pi: PeriodicMarkovStrategy) -> tuple[int, ...]:
    """The index in ``Mdp.rows`` of each state's action.  Raises
    ValueError for a strategy with more than one phase; then, at the
    first faulty state in state order, StrategyMismatch where pi names no
    action of the MDP, or else ValueError where it is randomized."""
    pre, rows = pi.preperiod_length, pi.rows
    if len(rows) != 1:
        raise ValueError("discounted and average values take a stationary strategy, "
                         f"not one of preperiod {pre} and period {len(rows) - pre}")
    given = dict(rows[0])
    choice = []
    for s, acts in zip(mdp.states, mdp.actions):
        dist = given.get(s, ((None, 1),))  # a state left out: action None
        for a, _ in dist:
            if a not in acts:
                raise StrategyMismatch(1, s, a)
        if len(dist) > 1:
            raise ValueError(f"strategy is randomized at state {s!r}")
        choice.append(acts.index(dist[0][0]))
    return tuple(choice)


def discounted_value(mdp: Mdp, pi: PeriodicMarkovStrategy) -> dict[str, RationalFunction]:
    """Per-state discounted value v(b) solving v = r + b*P*v, symbolically."""
    ensure_valid(mdp)
    k, det, nums = _packed_cramer(mdp, _policy_choice(mdp, pi))
    den = _unpack(det, k)
    return {s: _reduced(_unpack(num, k), den, (gcd(num, det), k))
            for s, num in zip(mdp.states, nums)}


def discounted_value_at(mdp: Mdp, pi: PeriodicMarkovStrategy, beta) -> dict[str, Fraction]:
    """Numeric twin of discounted_value at a fixed rational discount factor.

    Raises ZeroDivisionError if I - beta*P is singular (always at beta = 1).
    """
    ensure_valid(mdp)
    beta = Fraction(beta)
    # row i of I - beta*P and of r, times L_i
    rows = [per[j] for per, j in zip(mdp.rows, _policy_choice(mdp, pi))]
    zero = dict.fromkeys(range(len(mdp.states)), 0)
    a = [[int(i == z) * scale - beta * w for z, w in (zero | dict(sparse)).items()]
         for i, (scale, _, sparse) in enumerate(rows)]
    b = [rhs for _, rhs, _ in rows]
    try:
        v = _solve_linear(a, b)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"I - beta*P is singular at beta = {beta}") from None
    return {s: v[i] for i, s in enumerate(mdp.states)}


def blackwell_policy(mdp: Mdp) -> PeriodicMarkovStrategy:
    """Policy iteration in the Blackwell order.

    Starts from the lexicographically first pure stationary policy;
    each round switches every improvable state to its lowest-indexed
    improving action, judged by the sign of the one-step action-value
    difference near b = 1.  Terminates because each switch strictly
    improves the policy in the Blackwell order.  The policy is a list of
    action indices, its rows read straight from ``Mdp.rows``.

    With v = N / det, the difference for action a at state s is
    (r_a*det + b*sum_z p_az*N_z - N_s) / det.  Its numerator, scaled to
    integers, is the residual r_a*det - row_a . N of the action's scaled
    row of (I - bP | r), of 1-norm at most the row's 1-norm times B, and
    of degree at most n.  ``_packed_cramer`` eliminates at b = 2**k past
    2nB times the widest row's 1-norm, so each residual is one packed
    integer whose sign near 1 is read by residues (``_packed_order``)
    with no rational function built.
    """
    ensure_valid(mdp)
    n = len(mdp.states)
    widest = max(_norm(row) for cell in mdp.rows for row in cell)
    choice = [0] * n
    while True:
        pi = stationary({s: acts[j] for s, acts, j in zip(mdp.states, mdp.actions, choice)})
        k, det, nums = _packed_cramer(mdp, tuple(choice), widest)
        det_sign = _sign_of_order(*_packed_order(det, k))
        changed = False
        for i, per in enumerate(mdp.rows):
            for j, (scale, rhs, sparse) in enumerate(per):
                if j == choice[i]:
                    continue
                ahead = sum(w * nums[z] for z, w in sparse)
                residual = rhs * det - scale * nums[i] + (ahead << k)
                if _sign_of_order(*_packed_order(residual, k)) * det_sign > 0:
                    choice[i] = j
                    changed = True
                    break
        if not changed:
            return pi


def average_value(mdp: Mdp, pi: PeriodicMarkovStrategy) -> dict[str, Fraction]:
    """Long-run average reward per state: lim_{b->1} (1-b) * v(b).

    With det = (b-1)^m * D and N_s = (b-1)^k * M, (1-b) * N_s / det is
    -(b-1)^(k+1-m) * M / D: a pole at 1 if k+1 < m, else its value at 1.
    """
    ensure_valid(mdp)
    bits, det, nums = _packed_cramer(mdp, _policy_choice(mdp, pi))
    m, det_at_one = _packed_order(det, bits)
    out = {}
    for s, num in zip(mdp.states, nums):
        k, num_at_one = _packed_order(num, bits)
        if not num_at_one or k + 1 > m:
            out[s] = Fraction(0)
        elif k + 1 == m:
            out[s] = Fraction(-num_at_one, det_at_one)
        else:
            raise PoleAtOne(f"residual pole at 1 for state {s!r}")
    return out

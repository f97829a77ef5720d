"""Second computations that check the benchmark's answers.

Nothing here imports chargemdp: sets, charges and streams are
re-evaluated from the benchmark's own expression trees, by direct
arithmetic rather than the library's canonical forms.

* a set tree is ``("odds",)``, ``("evens",)``, ``("nat",)``,
  ``("empty",)``, ``("multiples", d)``, ``("ap", a, d)``,
  ``("shift", S, k)``, ``("contract", S, d)``, ``("not", S)``,
  ``("and", S, T)`` or ``("or", S, T)``;
* a charge tree is ``("frequency",)``, ``("geometric", beta)``,
  ``("pointmass", t)``, ``("dyadic",)``, ``("restrict", base, S)`` or
  ``("mix", ((w, charge), ...))``, with ``dyadic`` never below
  ``restrict`` and at most once in a mix;
* a stream is a pair ``(preperiod, cycle)`` of tuples of Fractions, not
  necessarily canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# ---- sets: direct arithmetic membership ---------------------------------


def member(tree, n: int) -> bool:
    kind = tree[0]
    if kind == "odds":
        return n % 2 == 1
    if kind == "evens":
        return n % 2 == 0
    if kind == "nat":
        return True
    if kind == "empty":
        return False
    if kind == "multiples":
        return n % tree[1] == 0
    if kind == "ap":
        a, d = tree[1], tree[2]
        return n >= a and (n - a) % d == 0
    if kind == "shift":
        m = n - tree[2]
        return m >= 1 and member(tree[1], m)
    if kind == "contract":
        return member(tree[1], n * tree[2])
    if kind == "not":
        return not member(tree[1], n)
    if kind == "and":
        return member(tree[1], n) and member(tree[2], n)
    if kind == "or":
        return member(tree[1], n) or member(tree[2], n)
    raise ValueError(f"unknown set node {kind!r}")


def bounds(tree) -> tuple[int, int]:
    """(m, p) such that membership of every n > m repeats with period p."""
    kind = tree[0]
    if kind in ("nat", "empty"):
        return 0, 1
    if kind in ("odds", "evens"):
        return 0, 2
    if kind == "multiples":
        return 0, tree[1]
    if kind == "ap":
        return tree[1] - 1, tree[2]
    if kind == "shift":
        m, p = bounds(tree[1])
        return max(m + tree[2], 0), p
    if kind == "contract":
        m, p = bounds(tree[1])
        return m // tree[2], p
    if kind == "not":
        return bounds(tree[1])
    if kind in ("and", "or"):
        (m1, p1), (m2, p2) = bounds(tree[1]), bounds(tree[2])
        return max(m1, m2), lcm(p1, p2)
    raise ValueError(f"unknown set node {kind!r}")


def indicator(tree) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The set as a 0/1 stream: the preperiod, then one full period."""
    m, p = bounds(tree)
    bits = [Fraction(int(member(tree, n))) for n in range(1, m + p + 1)]
    return tuple(bits[:m]), tuple(bits[m:])


def density(tree) -> Fraction:
    m, p = bounds(tree)
    return Fraction(sum(member(tree, n) for n in range(m + 1, m + p + 1)), p)


# ---- streams and charges -------------------------------------------------


def at(f, t: int) -> Fraction:
    pre, cyc = f
    if t <= len(pre):
        return pre[t - 1]
    return cyc[(t - len(pre) - 1) % len(cyc)]


def _product(f, g):
    L = max(len(f[0]), len(g[0]))
    q = lcm(len(f[1]), len(g[1]))
    vals = [at(f, t) * at(g, t) for t in range(1, L + q + 1)]
    return tuple(vals[:L]), tuple(vals[L:])


def _geometric(beta: Fraction, f) -> Fraction:
    """(1-b) * sum_t b**(t-1) f(t), summed stage by stage: the preperiod
    directly, the tail as one cycle times 1/(1 - b**q)."""
    pre, cyc = f
    head = Fraction(0)
    power = Fraction(1)
    for v in pre:
        head += power * v
        power *= beta
    cycle_sum = Fraction(0)
    for v in reversed(cyc):
        cycle_sum = cycle_sum * beta + v
    return (1 - beta) * (head + power * cycle_sum / (1 - beta ** len(cyc)))


def _dyadic(f, n: int) -> Fraction:
    """Mean of f(2**n * k) over k, valid once 2**n exceeds the preperiod."""
    pre, cyc = f
    step = pow(2, n)
    q = len(cyc) // gcd(step, len(cyc))
    return sum((at(f, step * k) for k in range(1, q + 1)), Fraction(0)) / q


def _charge_at(mu, f, n: int | None) -> Fraction:
    kind = mu[0]
    if kind == "frequency":
        return sum(f[1], Fraction(0)) / len(f[1])
    if kind == "geometric":
        return _geometric(Fraction(mu[1]), f)
    if kind == "pointmass":
        return at(f, mu[1])
    if kind == "dyadic":
        return _dyadic(f, n)
    if kind == "restrict":
        w = indicator(mu[2])
        return _charge_at(mu[1], _product(f, w), n) / _charge_at(mu[1], w, n)
    if kind == "mix":
        return sum((Fraction(w) * _charge_at(c, f, n) for w, c in mu[1]), Fraction(0))
    raise ValueError(f"unknown charge node {kind!r}")


def _has_dyadic(mu) -> bool:
    if mu[0] == "dyadic":
        return True
    if mu[0] == "mix":
        return any(_has_dyadic(c) for _, c in mu[1])
    return False


def _two_adic(q: int) -> int:
    return (q & -q).bit_length() - 1


def _order_of_two(q: int) -> int:
    """Multiplicative order of 2 modulo the odd part of q."""
    odd = q >> _two_adic(q)
    k, r = 1, 2 % odd
    while odd > 1 and r != 1:
        r = r * 2 % odd
        k += 1
    return k


def charge_values(mu, f) -> frozenset[Fraction]:
    """All values the charge tree takes on the stream: one value unless a
    dyadic limit is involved, whose candidates are the values over one
    period of n -> 2**n mod q once 2**n exceeds the preperiod."""
    if not _has_dyadic(mu):
        return frozenset({_charge_at(mu, f, None)})
    L, q = len(f[0]), len(f[1])
    n0 = max(L.bit_length(), _two_adic(q)) + 1
    return frozenset(_charge_at(mu, f, n) for n in range(n0, n0 + _order_of_two(q)))


# ---- deterministic MDPs --------------------------------------------------


def deterministic_stream(spec, rows, preperiod: int):
    """Reward stream of a pure periodic strategy on a deterministic MDP.

    ``spec`` is ``(initial, {state: {action: (reward, next_state)}})``;
    ``rows[k]`` maps each state to its action at phase k+1, phases after
    ``preperiod`` repeating.  Stops at the first repeated (phase, state).
    """
    initial, table = spec
    period = len(rows) - preperiod
    seen: dict[tuple, int] = {}
    rewards: list[Fraction] = []
    state, t = initial, 1
    while True:
        phase = t if t <= preperiod else preperiod + 1 + (t - preperiod - 1) % period
        key = (phase if t > preperiod else -t, state)
        if t > preperiod and key in seen:
            i = seen[key]
            return tuple(rewards[:i]), tuple(rewards[i:])
        seen[key] = len(rewards)
        reward, state = table[state][rows[phase - 1][state]]
        rewards.append(Fraction(reward))
        t += 1


# ---- stochastic MDPs, via the numeric Blackwell twin ---------------------


def gain_is_consistent(rows, gain: dict, values_near_one: dict,
                       one_minus_beta: Fraction) -> bool:
    """A claimed long-run average g must satisfy P g = g exactly and be
    close to (1-b) v(b) at b near 1, where the gap is (1-b) times the
    bias plus higher-order terms."""
    states = list(gain)
    for s, (_, probs) in zip(states, rows):
        if sum((q * gain[z] for q, z in zip(probs, states)), Fraction(0)) != gain[s]:
            return False
    return all(abs(float(one_minus_beta * values_near_one[s] - gain[s])) < 1e-3
               for s in states)


# ---- parsing the command line's text output ------------------------------


def parse_value(text: str) -> frozenset[Fraction]:
    """A charge value as the CLI prints it: ``q`` or ``{q1, q2, ...}``."""
    text = text.strip()
    if text.startswith("{"):
        return frozenset(Fraction(x) for x in text[1:-1].split(","))
    return frozenset({Fraction(text)})


def parse_poly(text: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    if text.strip() == "0":
        return out
    for term in text.split(" + "):
        coeff, _, power = term.partition("*")
        k = int(power.partition("^")[2] or 1) if power else 0
        out[k] = out.get(k, Fraction(0)) + Fraction(coeff)
    return out


def eval_rational_function(text: str, x: Fraction) -> Fraction:
    """Value at x of a rendered ``(num)/(den)`` rational function."""
    num, den = text[1:-1].split(")/(")
    n = sum((c * x ** k for k, c in parse_poly(num).items()), Fraction(0))
    d = sum((c * x ** k for k, c in parse_poly(den).items()), Fraction(0))
    return n / d

r"""Text grammars: set and charge expressions, stream literals, MDP and
strategy files.  All parsers are recursive descent over one word list;
errors carry line/column positions.

One regular expression splits the text into token texts, skipping the
newlines, blanks (space, tab, CR) and ``#`` comments (to the end of the
line) between them: ``\d+`` (decimal digits), ``[^\W\d]\w*`` or one of
``()[]{}|&!,:;/=-``, and ``""`` at the end.  The parser reads only the
texts; a token's kind comes from its first character (punctuation, a
decimal digit, else a name).  Any other character is a ``ParseError``.
Line and column are computed only when an error is raised, by matching
the same expression again up to the word at fault.

Set and charge expressions nest at most ``MAX_NESTING`` (100) levels
deep.  A parenthesis, a ``!``, a ``mix`` and a constructor's argument
list each open one level; past the bound the parser raises a
``ParseError`` at the token that opens the level, so deep input never
exhausts the interpreter's stack in parsing or in evaluation.

Range checks belong to the constructors (``multiples``, ``Geometric``,
``Mix``, ``stream``, ``stationary``, ...).  ``_Parser.build`` reports a
constructor's ``ValueError`` as a ``ParseError`` at its token.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import periodic_sets as ps
from .charges import (Charge, DyadicLimit, Frequency, Geometric, Mix, PointMass,
                      Restrict)
from .mdp import _ONE, Mdp, PeriodicMarkovStrategy, build_mdp, periodic, stationary
from .periodic_sets import EventuallyPeriodicSet
from .streams import RationalStream, stream


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


# One match per word, the blanks and comments before it included.  The
# group never fails, so the greedy blanks never give a character back; a
# character that starts no token takes the rest of the text with it.
_WORD = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(\d+|[^\W\d]\w*|[()\[\]{}|&!,:;/=-]|(?s:.+)|)")
_PUNCT = frozenset("()[]{}|&!,:;/=-")
_BAD = re.compile(r"[^\w()\[\]{}|&!,:;/=-]")  # a character that starts no token

MAX_NESTING = 100


class _Parser:
    """Reads ``words``, the token texts; ``pos`` is the index of the next."""

    def __init__(self, text: str):
        self.text = text
        self.words = words = _WORD.findall(text)
        if len(words) > 1:  # a bad character's word runs to the end
            if _BAD.match(words[-2]):
                raise self.error(f"unexpected character {words[-2][0]!r}", len(words) - 2)
            if not words[-2]:
                words.pop()  # blanks or a comment end the text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        return self.words[self.pos]

    def error(self, message: str, i: int) -> ParseError:
        """A ``ParseError`` at word ``i``, placed by matching ``_WORD`` again
        up to that word only.  END sits just past the last character outside
        a comment; a '#' on the last line can only start a comment that runs
        to the end."""
        text = self.text
        m = next(itertools.islice(_WORD.finditer(text), i, None))
        at = m.start(1)
        if not m.group(1):
            at = text.find("#", text.rfind("\n") + 1)
            at = len(text) if at < 0 else at
        return ParseError(message, text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at))

    def fail(self, message: str):
        raise self.error(message, self.pos)

    def nest(self, i: int) -> None:
        """Open one nesting level at word ``i``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", i)

    def build(self, i: int, fn, *args):
        """``fn(*args)``, with a ``ValueError`` it raises reported at word ``i``."""
        try:
            return fn(*args)
        except ValueError as exc:
            raise self.error(str(exc), i) from None

    def expect_punct(self, text: str) -> None:
        word = self.words[self.pos]
        if word != text:
            self.fail(f"expected {text!r}, got {word!r}" if word
                      else f"expected {text!r}, got end of input")
        self.pos += 1

    def at_punct(self, text: str) -> bool:
        return self.words[self.pos] == text

    def take_punct(self, text: str) -> bool:
        if self.words[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_name(self) -> str:
        word = self.words[self.pos]
        if not word or word in _PUNCT or word.isdecimal():
            self.fail(f"expected a name, got {word!r}")
        self.pos += 1
        return word

    def expect_word(self, word: str, message: str) -> None:
        if self.expect_name() != word:
            self.fail(message)

    def expect_id(self) -> str:
        """State and action identifiers may be words or bare numbers."""
        word = self.words[self.pos]
        if not word or word in _PUNCT:
            self.fail(f"expected an identifier, got {word!r}")
        self.pos += 1
        return word

    def at_id(self) -> bool:
        word = self.words[self.pos]
        return word != "" and word not in _PUNCT

    def expect_nat(self) -> int:
        i = self.pos
        word = self.words[i]
        if not word.isdecimal():
            self.fail(f"expected a number, got {word!r}")
        self.pos = i + 1
        return self.build(i, int, word)  # int() has a digit limit

    def expect_int(self) -> int:
        neg = self.take_punct("-")
        n = self.expect_nat()
        return -n if neg else n

    def expect_rational(self) -> Fraction:
        num = self.expect_int()
        if self.take_punct("/"):
            den = self.expect_nat()
            if den == 0:
                self.fail("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def expect_end(self):
        if self.words[self.pos]:
            self.fail(f"unexpected trailing input {self.words[self.pos]!r}")

    def call(self, table: dict, what: str):
        """``<name>`` or ``<name>(<arg>, ...)``; ``table`` maps each name to
        its constructor and one parser method per argument."""
        i = self.pos
        entry = table.get(self.expect_name())
        if entry is None:
            raise self.error(f"unknown {what} constructor {self.words[i]!r}", i)
        fn, rules = entry
        args = []
        if rules:
            self.nest(i)
            self.expect_punct("(")
            for k, rule in enumerate(rules):
                if k:
                    self.expect_punct(",")
                args.append(rule(self))
            self.expect_punct(")")
            self.depth -= 1
        return self.build(i, fn, *args)

    # ---- set expressions -------------------------------------------------

    def set_expr(self) -> EventuallyPeriodicSet:
        left = self.set_term()
        while self.take_punct("|"):
            left = ps.union(left, self.set_term())
        return left

    def set_term(self) -> EventuallyPeriodicSet:
        left = self.set_factor()
        while self.take_punct("&"):
            left = ps.intersect(left, self.set_factor())
        return left

    def set_factor(self) -> EventuallyPeriodicSet:
        i = self.pos
        if self.take_punct("!"):
            self.nest(i)
            out = ps.complement(self.set_factor())
        elif self.take_punct("("):
            self.nest(i)
            out = self.set_expr()
            self.expect_punct(")")
        else:
            return self.call(_SETS, "set")
        self.depth -= 1
        return out

    # ---- charge expressions ----------------------------------------------

    def charge_expr(self) -> Charge:
        i = self.pos
        if self.words[i] != "mix":
            return self.call(_CHARGES, "charge")
        self.pos += 1
        self.nest(i)
        self.expect_punct("(")
        parts = []
        while not parts or self.take_punct(","):
            w = self.expect_rational()
            self.expect_punct(":")
            parts.append((w, self.charge_expr()))
        self.expect_punct(")")
        self.depth -= 1
        return self.build(i, Mix, tuple(parts))

    # ---- stream literals -------------------------------------------------

    def stream_literal(self) -> RationalStream:
        i = self.pos
        if self.expect_name() != "stream":
            raise self.error("expected 'stream'", i)
        self.expect_punct("(")
        pre = self.rational_list()
        self.expect_punct(";")
        cyc = self.rational_list()
        self.expect_punct(")")
        return self.build(i, stream, pre, cyc)

    def rational_list(self) -> list[Fraction]:
        self.expect_punct("[")
        out = []
        if not self.at_punct("]"):
            out.append(self.expect_rational())
            while self.take_punct(","):
                out.append(self.expect_rational())
        self.expect_punct("]")
        return out


_SETS = {
    "odds": (ps.odds, ()),
    "evens": (ps.evens, ()),
    "nat": (ps.naturals, ()),
    "empty": (ps.empty, ()),
    "multiples": (ps.multiples, (_Parser.expect_nat,)),
    "ap": (ps.arithmetic, (_Parser.expect_nat, _Parser.expect_nat)),
    "shift": (ps.shift, (_Parser.set_expr, _Parser.expect_int)),
    "contract": (ps.contract, (_Parser.set_expr, _Parser.expect_nat)),
}
_CHARGES = {
    "frequency": (Frequency, ()),
    "dyadiclimit": (DyadicLimit, ()),
    "geometric": (Geometric, (_Parser.expect_rational,)),
    "pointmass": (PointMass, (_Parser.expect_nat,)),
    "restrict": (Restrict, (_Parser.charge_expr, _Parser.set_expr)),
}


def _parse(text: str, rule):
    p = _Parser(text)
    out = rule(p)
    p.expect_end()
    return out


def parse_set(text: str) -> EventuallyPeriodicSet:
    return _parse(text, _Parser.set_expr)


def parse_charge(text: str) -> Charge:
    return _parse(text, _Parser.charge_expr)


def parse_stream(text: str) -> RationalStream:
    return _parse(text, _Parser.stream_literal)


# ---- MDP files -----------------------------------------------------------

def parse_mdp(text: str) -> Mdp:
    """Line-oriented MDP description:

        mdp
        initial <state-id>
        state <state-id>
          action <action-id> reward <rational> goto <state-id>
          action <action-id> reward <rational> dist <s>:<q> [<s>:<q> ...]
    """
    p = _Parser(text)
    words = p.words
    if words[0] != "mdp":
        p.fail("expected 'mdp' header")
    p.pos = 1
    initial = None  # the index of the initial state's identifier
    states: list[str] = []
    known: set[str] = set()
    actions: dict[str, list[str]] = {}
    rewards = {}
    transitions = {}
    targets = []  # (index, state, action) of each transition target
    current: str | None = None
    while words[p.pos]:
        i = p.pos
        word = p.expect_name()
        if word == "initial":
            if initial is not None:
                raise p.error("repeated 'initial' line", i)
            initial = p.pos
            p.expect_id()
        elif word == "state":
            current = p.expect_id()
            if current in known:
                raise p.error(f"duplicate state {current!r}", i)
            states.append(current)
            known.add(current)
            actions[current] = []
        elif word == "action":
            if current is None:
                raise p.error("action before any state", i)
            a = p.expect_id()
            if a in actions[current]:
                raise p.error(f"duplicate action {a!r} in state {current!r}", p.pos - 1)
            if p.expect_name() != "reward":
                raise p.error("expected 'reward'", i)
            r = p.expect_rational()
            kw_at = p.pos
            kw = p.expect_name()
            if kw == "goto":
                targets.append((p.pos, current, a))
                row = {p.expect_id(): _ONE}
            elif kw == "dist":
                row = {}
                # the next clause starts with one of the file keywords
                while p.at_id() and words[p.pos] not in ("state", "action", "initial"):
                    targets.append((p.pos, current, a))
                    z = p.expect_id()
                    p.expect_punct(":")
                    q = p.expect_rational()
                    row[z] = row.get(z, Fraction(0)) + q
                if not row:
                    raise p.error("empty distribution", kw_at)
            else:
                raise p.error(f"expected 'goto' or 'dist', got {kw!r}", kw_at)
            actions[current].append(a)
            rewards[(current, a)] = r
            transitions[(current, a)] = row
        else:
            raise p.error(f"unexpected keyword {word!r}", i)
    if initial is None:
        p.fail("missing 'initial' line")
    for i, s, a in targets:
        if words[i] not in known:
            raise p.error(f"transition from ({s!r}, {a!r}) to unknown state {words[i]!r}", i)
    if words[initial] not in known:
        raise p.error(f"unknown initial state {words[initial]!r}", initial)
    return build_mdp(states, words[initial],
                     {s: tuple(v) for s, v in actions.items()}, rewards, transitions)


# ---- strategy files ------------------------------------------------------

def _cell(p: _Parser, acts: dict[str, tuple[str, ...]]) -> tuple[str, str | dict]:
    """``<state>: <action>[:<q>] ...``; a bare action means prob 1
    and ends the cell, and a cell of one bare action is returned as
    that action.  ``acts`` maps each state to its actions."""
    s = p.expect_id()
    if s not in acts:
        p.fail(f"unknown state {s!r}")
    p.expect_punct(":")
    dist = {}
    while p.at_id() and p.peek() in acts[s]:
        a = p.expect_id()
        if not p.take_punct(":"):
            if not dist:
                return s, a
            dist[a] = _ONE
            break
        dist[a] = dist.get(a, 0) + p.expect_rational()
    if not dist:
        p.fail(f"expected an action of state {s!r}")
    return s, dist


def parse_strategy(text: str, mdp: Mdp) -> PeriodicMarkovStrategy:
    """``stationary { s: a ... }`` or
    ``periodic preperiod=<L> period=<q> { phase <k> state <s>: a ... }``.
    Omitted entries default to the first declared action; a state given
    twice in one phase is an error."""
    p = _Parser(text)
    kind = p.expect_name()
    if kind == "stationary":
        L, q = 0, 1
    elif kind == "periodic":
        p.expect_word("preperiod", "expected 'preperiod='")
        p.expect_punct("=")
        L = p.expect_nat()
        p.expect_word("period", "expected 'period='")
        p.expect_punct("=")
        q = p.expect_nat()
    else:
        raise p.error(f"expected 'stationary' or 'periodic', got {kind!r}", 0)
    acts = dict(zip(mdp.states, mdp.actions))
    rows = [{s: acts[s][0] for s in mdp.states} for _ in range(L + q)]
    given = set()  # (phase, state) of each cell read
    p.expect_punct("{")
    while not p.at_punct("}"):
        k = 1
        if kind == "periodic":
            i = p.pos
            p.expect_word("phase", "expected 'phase'")
            k = p.expect_nat()
            if not 1 <= k <= L + q:
                raise p.error(f"phase {k} out of range 1..{L + q}", i)
            p.expect_word("state", "expected 'state'")
        at = p.pos
        s, dist = _cell(p, acts)
        if (k, s) in given:
            raise p.error(f"state {s!r} given twice in phase {k}", at)
        given.add((k, s))
        rows[k - 1][s] = dist
    p.expect_punct("}")
    out = (p.build(0, stationary, rows[0]) if kind == "stationary"
           else p.build(0, periodic, rows[:L], rows[L:]))
    p.expect_end()
    return out

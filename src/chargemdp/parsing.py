r"""Text grammars: set and charge expressions, stream literals, MDP and
strategy files.  All parsers are recursive descent over one token list;
errors carry line/column positions.

``tokenize`` makes one regular-expression match per token, the blanks
and comments before it included, with a group per token kind:
``INT`` is ``\d+`` (decimal digits), ``NAME`` is ``[^\W\d]\w*``,
``PUNCT`` is one of ``()[]{}|&!,:;/=-``; newlines, blanks (space, tab,
CR) and ``#`` comments (to the end of the line) separate tokens, and any
other character is a ``ParseError``.

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

import re
from fractions import Fraction
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # NAME | INT | PUNCT | END
    text: str
    line: int
    col: int


# One match per token, the blanks and comments before it included.  The
# token group matches any character, so a match without it is the end of
# the text, and the greedy blanks never give a character back.
_TOKEN = re.compile(r"(?:[ \t\r]+|#[^\n]*)*(?:(\d+)|([^\W\d]\w*)|([()\[\]{}|&!,:;/=-])|(\n)|(.))?")
_KINDS = (None, "INT", "NAME", "PUNCT")  # by group; group 4 is a newline, 5 a bad character


def tokenize(text: str) -> list[Token]:
    out, make = [], Token._make
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k is None:
            break
        if k == 4:
            line, line_start = line + 1, m.end()
        elif k == 5:
            raise ParseError(f"unexpected character {m.group(5)!r}",
                             line, m.start(5) - line_start + 1)
        else:
            out.append(make((_KINDS[k], m.group(k), line, m.start(k) - line_start + 1)))
    # END sits just past the last character outside a comment; a '#' on
    # the last line can only start a comment that runs to the end
    stop = text.find("#", line_start)
    out.append(Token("END", "", line, (len(text) if stop < 0 else stop) - line_start + 1))
    return out


MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def nest(self, tok: Token) -> None:
        """Open one nesting level at ``tok``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    def build(self, tok: Token, fn, *args):
        """``fn(*args)``, with a ``ValueError`` it raises reported at ``tok``."""
        try:
            return fn(*args)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            self.fail(f"expected {text!r}, got {tok.text!r}" if tok.text
                      else f"expected {text!r}, got end of input")
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def take_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(f"expected a name, got {tok.text!r}")
        return self.next().text

    def expect_word(self, word: str, message: str) -> None:
        if self.expect_name() != word:
            self.fail(message)

    def expect_id(self) -> str:
        """State and action identifiers may be words or bare numbers."""
        tok = self.peek()
        if tok.kind not in ("NAME", "INT"):
            self.fail(f"expected an identifier, got {tok.text!r}")
        return self.next().text

    def at_id(self) -> bool:
        return self.peek().kind in ("NAME", "INT")

    def expect_nat(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.fail(f"expected a number, got {tok.text!r}")
        return self.build(tok, int, self.next().text)  # int() has a digit limit

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
        if self.peek().kind != "END":
            self.fail(f"unexpected trailing input {self.peek().text!r}")

    def call(self, table: dict, what: str):
        """``<name>`` or ``<name>(<arg>, ...)``; ``table`` maps each name to
        its constructor and one parser method per argument."""
        tok = self.peek()
        entry = table.get(self.expect_name())
        if entry is None:
            raise ParseError(f"unknown {what} constructor {tok.text!r}", tok.line, tok.col)
        fn, rules = entry
        args = []
        if rules:
            self.nest(tok)
            self.expect_punct("(")
            for i, rule in enumerate(rules):
                if i:
                    self.expect_punct(",")
                args.append(rule(self))
            self.expect_punct(")")
            self.depth -= 1
        return self.build(tok, fn, *args)

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
        tok = self.peek()
        if self.take_punct("!"):
            self.nest(tok)
            out = ps.complement(self.set_factor())
        elif self.take_punct("("):
            self.nest(tok)
            out = self.set_expr()
            self.expect_punct(")")
        else:
            return self.call(_SETS, "set")
        self.depth -= 1
        return out

    # ---- charge expressions ----------------------------------------------

    def charge_expr(self) -> Charge:
        tok = self.peek()
        if tok.text != "mix":  # only a NAME token can read "mix"
            return self.call(_CHARGES, "charge")
        self.next()
        self.nest(tok)
        self.expect_punct("(")
        parts = []
        while not parts or self.take_punct(","):
            w = self.expect_rational()
            self.expect_punct(":")
            parts.append((w, self.charge_expr()))
        self.expect_punct(")")
        self.depth -= 1
        return self.build(tok, Mix, tuple(parts))

    # ---- stream literals -------------------------------------------------

    def stream_literal(self) -> RationalStream:
        tok = self.peek()
        if self.expect_name() != "stream":
            raise ParseError("expected 'stream'", tok.line, tok.col)
        self.expect_punct("(")
        pre = self.rational_list()
        self.expect_punct(";")
        cyc = self.rational_list()
        self.expect_punct(")")
        return self.build(tok, stream, pre, cyc)

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
    p = _Parser(tokenize(text))
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
    p = _Parser(tokenize(text))
    if p.peek().kind != "NAME" or p.peek().text != "mdp":
        p.fail("expected 'mdp' header")
    p.next()
    initial = None  # the token of the initial state's identifier
    states: list[str] = []
    known: set[str] = set()
    actions: dict[str, list[str]] = {}
    rewards = {}
    transitions = {}
    targets = []  # (token, state, action) of each transition target
    current: str | None = None
    while p.peek().kind != "END":
        tok = p.peek()
        word = p.expect_name()
        if word == "initial":
            if initial is not None:
                raise ParseError("repeated 'initial' line", tok.line, tok.col)
            initial = p.peek()
            p.expect_id()
        elif word == "state":
            current = p.expect_id()
            if current in known:
                raise ParseError(f"duplicate state {current!r}", tok.line, tok.col)
            states.append(current)
            known.add(current)
            actions[current] = []
        elif word == "action":
            if current is None:
                raise ParseError("action before any state", tok.line, tok.col)
            a_tok = p.peek()
            a = p.expect_id()
            if a in actions[current]:
                raise ParseError(f"duplicate action {a!r} in state {current!r}",
                                 a_tok.line, a_tok.col)
            if p.expect_name() != "reward":
                raise ParseError("expected 'reward'", tok.line, tok.col)
            r = p.expect_rational()
            kw_tok = p.peek()
            kw = p.expect_name()
            if kw == "goto":
                targets.append((p.peek(), current, a))
                row = {p.expect_id(): _ONE}
            elif kw == "dist":
                row = {}
                # the next clause starts with one of the file keywords
                while (p.at_id()
                       and p.peek().text not in ("state", "action", "initial")):
                    targets.append((p.peek(), current, a))
                    z = p.expect_id()
                    p.expect_punct(":")
                    q = p.expect_rational()
                    row[z] = row.get(z, Fraction(0)) + q
                if not row:
                    raise ParseError("empty distribution", kw_tok.line, kw_tok.col)
            else:
                raise ParseError(f"expected 'goto' or 'dist', got {kw!r}",
                                 kw_tok.line, kw_tok.col)
            actions[current].append(a)
            rewards[(current, a)] = r
            transitions[(current, a)] = row
        else:
            raise ParseError(f"unexpected keyword {word!r}", tok.line, tok.col)
    if initial is None:
        p.fail("missing 'initial' line")
    for tok, s, a in targets:
        if tok.text not in known:
            raise ParseError(f"transition from ({s!r}, {a!r}) to unknown state {tok.text!r}",
                             tok.line, tok.col)
    if initial.text not in known:
        raise ParseError(f"unknown initial state {initial.text!r}", initial.line, initial.col)
    return build_mdp(states, initial.text,
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
    while p.at_id() and p.peek().text in acts[s]:
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
    Omitted entries default to the first declared action."""
    p = _Parser(tokenize(text))
    kind_tok = p.peek()
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
        raise ParseError(f"expected 'stationary' or 'periodic', got {kind!r}",
                         kind_tok.line, kind_tok.col)
    acts = dict(zip(mdp.states, mdp.actions))
    rows = [{s: acts[s][0] for s in mdp.states} for _ in range(L + q)]
    p.expect_punct("{")
    while not p.at_punct("}"):
        k = 1
        if kind == "periodic":
            tok = p.peek()
            p.expect_word("phase", "expected 'phase'")
            k = p.expect_nat()
            if not 1 <= k <= L + q:
                raise ParseError(f"phase {k} out of range 1..{L + q}", tok.line, tok.col)
            p.expect_word("state", "expected 'state'")
        s, dist = _cell(p, acts)
        rows[k - 1][s] = dist
    p.expect_punct("}")
    out = (p.build(kind_tok, stationary, rows[0]) if kind == "stationary"
           else p.build(kind_tok, periodic, rows[:L], rows[L:]))
    p.expect_end()
    return out


# ---- renderers -----------------------------------------------------------

def render_set(s: EventuallyPeriodicSet) -> str:
    if s.is_empty:
        return "empty"
    if s == ps.naturals():
        return "nat"
    if s == ps.odds():
        return "odds"
    if s == ps.evens():
        return "evens"
    terms = []
    for n in range(1, s.pre_len + 1):
        if (s.pre_mask >> (n - 1)) & 1:
            terms.append(f"ap({n},1) & !ap({n + 1},1)")  # the singleton {n}
    for r in sorted(s.residues):
        a = ps.first_tail_element(s, r)
        if s.period == a and s.pre_len == 0:
            terms.append(f"multiples({s.period})")
        else:
            terms.append(f"ap({a},{s.period})")
    return " | ".join(terms)


def render_charge(mu: Charge) -> str:
    if isinstance(mu, Frequency):
        return "frequency"
    if isinstance(mu, DyadicLimit):
        return "dyadiclimit"
    if isinstance(mu, Geometric):
        return f"geometric({mu.beta})"
    if isinstance(mu, PointMass):
        return f"pointmass({mu.stage})"
    if isinstance(mu, Restrict):
        return f"restrict({render_charge(mu.base)}, {render_set(mu.window)})"
    if isinstance(mu, Mix):
        inner = ", ".join(f"{w}:{render_charge(c)}" for w, c in mu.parts)
        return f"mix({inner})"
    raise TypeError(f"not a charge expression: {mu!r}")

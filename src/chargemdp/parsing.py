r"""Text grammars: set and charge expressions, stream literals, MDP and
strategy files.  All parsers are recursive descent over one word list;
errors carry line/column positions.

One regular expression splits the text into token texts, skipping the
newlines, blanks (space, tab, CR) and ``#`` comments (to the end of the
line) between them: ``\d+`` (decimal digits), ``[^\W\d]\w*`` or one of
``()[]{}|&!,:;/=-``, and ``""`` at the end.  The parser reads only the
texts; a token's kind comes from its first character (punctuation, a
decimal digit, else a name).  Any other character is a ``ParseError``.
The rules read the texts through helpers (``expect_punct``,
``take_punct``, ``expect_name``, ``expect_nat``, ...) that step past the
word or raise the ``ParseError`` for it.  Where every set, charge or
number passes (the three set rules, ``call``'s name and argument
separators, the signs and slashes of ``expect_int`` and
``expect_rational``), the rule compares ``self.words[self.pos]`` itself
and calls a helper only to raise.  Line and column are computed only
when an error is raised, by matching the same expression again up to
the word at fault.

Set and charge expressions nest at most ``MAX_NESTING`` (100) levels
deep.  A parenthesis, a ``!`` and a constructor's argument list (``mix``
included) each open one level; past the bound the parser raises a
``ParseError`` at the token that opens the level, so deep input never
exhausts the interpreter's stack in parsing or in evaluation.

Range checks belong to the constructors (``multiples``, ``Geometric``,
``Mix``, ``stream``, ``stationary``, ...).  A constructor's
``ValueError`` becomes a ``ParseError`` at its token: ``_Parser.call``
and ``expect_nat`` (``int()`` has a digit limit) catch it in place, and
``_Parser.build`` does it for the other rules.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from . import mdp as _mdp
from . import periodic_sets as ps
from .charges import (Charge, DyadicLimit, Frequency, Geometric, Mix, PointMass,
                      Restrict)
from .mdp import (_ONE, BudgetExceeded, Mdp, PeriodicMarkovStrategy, build_mdp, periodic,
                  stationary)
from .periodic_sets import EventuallyPeriodicSet
from .streams import RationalStream, stream


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


# One match per word, the blanks and comments before it included: a
# comment runs to a newline or the end, so they read as blanks, then
# (comment, blanks) pairs.  The group never fails, so the greedy blanks
# never give a character back; a character that starts no token takes the
# rest of the text with it.  The token kinds start with disjoint
# characters, so their order only decides which is tried first, and
# punctuation, the most frequent kind, comes first.
_WORD = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*([()\[\]{}|&!,:;/=-]|\d+|[^\W\d]\w*|(?s:.+)|)")
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
        try:
            return int(word)
        except ValueError as exc:  # int() has a digit limit
            raise self.error(str(exc), i) from None

    def expect_int(self) -> int:
        if self.words[self.pos] != "-":
            return self.expect_nat()
        self.pos += 1
        return -self.expect_nat()

    def expect_rational(self) -> Fraction:
        num = self.expect_int()
        if self.words[self.pos] != "/":
            return Fraction(num)
        self.pos += 1
        den = self.expect_nat()
        if den == 0:
            self.fail("zero denominator")
        return Fraction(num, den)

    def expect_end(self):
        if self.words[self.pos]:
            self.fail(f"unexpected trailing input {self.words[self.pos]!r}")

    def call(self, table: dict, what: str):
        """``<name>`` or ``<name>(<arg>, ...)``; ``table`` maps each name to
        its constructor and one parser method per argument.  A
        ``ValueError`` of the constructor is reported at the name."""
        i = self.pos
        word = self.words[i]
        entry = table.get(word)
        if entry is None:
            self.expect_name()
            raise self.error(f"unknown {what} constructor {word!r}", i)
        self.pos = i + 1
        fn, rules = entry
        args = []
        if rules:
            self.nest(i)
            words = self.words
            sep = "("
            for rule in rules:
                if words[self.pos] != sep:
                    self.expect_punct(sep)
                self.pos += 1
                args.append(rule(self))
                sep = ","
            self.expect_punct(")")
            self.depth -= 1
        try:
            return fn(*args)
        except ValueError as exc:
            raise self.error(str(exc), i) from None

    # ---- set expressions -------------------------------------------------

    def set_expr(self) -> EventuallyPeriodicSet:
        left = self.set_term()
        while self.words[self.pos] == "|":
            self.pos += 1
            left = ps.union(left, self.set_term())
        return left

    def set_term(self) -> EventuallyPeriodicSet:
        left = self.set_factor()
        while self.words[self.pos] == "&":
            self.pos += 1
            left = ps.intersect(left, self.set_factor())
        return left

    def set_factor(self) -> EventuallyPeriodicSet:
        i = self.pos
        word = self.words[i]
        if word != "!" and word != "(":
            return self.call(_SETS, "set")
        self.pos = i + 1
        self.nest(i)
        if word == "!":
            out = ps.complement(self.set_factor())
        else:
            out = self.set_expr()
            self.expect_punct(")")
        self.depth -= 1
        return out

    # ---- charge expressions ----------------------------------------------

    def charge_expr(self) -> Charge:
        return self.call(_CHARGES, "charge")

    def mix_parts(self) -> tuple[tuple[Fraction, Charge], ...]:
        """``<weight>: <charge>, ...``, the argument of ``mix``."""
        parts = []
        while not parts or self.take_punct(","):
            w = self.expect_rational()
            self.expect_punct(":")
            parts.append((w, self.charge_expr()))
        return tuple(parts)

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
    "mix": (Mix, (_Parser.mix_parts,)),
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
    declared: dict[str, dict[str, tuple]] = {}  # state -> {action: (reward, row)}, in file order
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
            if current in declared:
                raise p.error(f"duplicate state {current!r}", i)
            declared[current] = {}
        elif word == "action":
            if current is None:
                raise p.error("action before any state", i)
            a = p.expect_id()
            if a in declared[current]:
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
                # the next clause starts with a file keyword not followed by ':'
                while p.at_id() and (words[p.pos] not in ("state", "action", "initial")
                                     or words[p.pos + 1] == ":"):
                    targets.append((p.pos, current, a))
                    z = p.expect_id()
                    p.expect_punct(":")
                    q = p.expect_rational()
                    row[z] = row.get(z, Fraction(0)) + q
                if not row:
                    raise p.error("empty distribution", kw_at)
            else:
                raise p.error(f"expected 'goto' or 'dist', got {kw!r}", kw_at)
            declared[current][a] = r, row
        else:
            raise p.error(f"unexpected keyword {word!r}", i)
    if initial is None:
        p.fail("missing 'initial' line")
    for i, s, a in targets:
        if words[i] not in declared:
            raise p.error(f"transition from ({s!r}, {a!r}) to unknown state {words[i]!r}", i)
    if words[initial] not in declared:
        raise p.error(f"unknown initial state {words[initial]!r}", initial)
    return build_mdp(declared, words[initial], declared, *(  # the rewards, then the rows
        {(s, a): v[k] for s, acts in declared.items() for a, v in acts.items()} for k in (0, 1)))


# ---- strategy files ------------------------------------------------------

def _cell(p: _Parser, names: dict[str, dict[str, int]], periodic: bool) -> tuple[str, str | dict]:
    """``<state>: <action>[:<q>] ...``; a bare action means prob 1 and
    ends the cell, and a cell of one bare action is returned as that
    action.  A weighted cell also ends where the next one starts: at
    ``phase <n>`` (periodic file) or ``<state>: <w>`` (stationary) when w
    is not a number, or when w is an action of that state and the cell's
    weights already sum to 1.  ``names``: state -> its action index map."""
    s = p.expect_id()
    if s not in names:
        p.fail(f"unknown state {s!r}")
    p.expect_punct(":")
    dist = {}
    words = p.words
    while p.at_id() and (a := words[p.pos]) in names[s]:
        if dist and ((a == "phase" and words[p.pos + 1].isdecimal()) if periodic else (
                a in names and words[p.pos + 1] == ":" and (w := words[p.pos + 2])
                and w not in _PUNCT and (not w.isdecimal()
                                         or w in names[a] and sum(dist.values()) == 1))):
            break
        p.pos += 1
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
    twice in one phase is an error.  Past ``mdp.STRATEGY_CAP`` phases, or
    (phases naming a cell + 1) * states cells (the rest share one row),
    BudgetExceeded is raised before any row is built."""
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
    if L + q > (cap := _mdp.STRATEGY_CAP):
        raise BudgetExceeded(f"{L + q} strategy phases exceeds cap {cap}")
    names = mdp._action_index  # the MDP is validated before any cell is read
    cells: dict[int, dict] = {}  # phase -> {state: its cell}, for each phase that names one
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
        s, dist = _cell(p, names, kind == "periodic")
        if s in (named := cells.setdefault(k, {})):
            raise p.error(f"state {s!r} given twice in phase {k}", at)
        named[s] = dist
    p.expect_punct("}")
    if (n := (len(cells) + 1) * len(mdp.states)) > cap:
        raise BudgetExceeded(f"{n} strategy cells exceeds cap {cap}")
    default = {s: acts[0] for s, acts in zip(mdp.states, mdp.actions)}  # each cell-less phase's row
    rows = [default | cells[k] if k in cells else default for k in range(1, L + q + 1)]
    out = (p.build(0, stationary, rows[0]) if kind == "stationary"
           else p.build(0, periodic, rows[:L], rows[L:]))
    p.expect_end()
    return out

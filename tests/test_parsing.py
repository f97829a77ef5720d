"""Text grammars: round trips, precedence, file formats, error positions."""

import hashlib
import time
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp import mdp as mdp_module
from chargemdp.charges import (DyadicLimit, Frequency, Geometric, Mix,
                               PointMass, Restrict)
from chargemdp.counterexamples import (alternating_strategy, even_or_odd_mdp,
                                       stay_strategy)
from chargemdp.mdp import (BudgetExceeded, PeriodicMarkovStrategy, build_mdp, payoff, periodic,
                           stationary, validate)
from chargemdp.parsing import (ParseError, _parse, _Parser, parse_charge,
                               parse_mdp, parse_set, parse_strategy,
                               parse_stream)
from chargemdp.periodic_sets import (arithmetic, complement, empty, evens,
                                     intersect, multiples, naturals, odds,
                                     shift, union)
from chargemdp.streams import stream

from conftest import first_tail_element, periodic_sets, rational_streams


def parse_rational(text: str) -> Fraction:
    """A lone rational literal, as the MDP and strategy files read them."""
    return _parse(text, _Parser.expect_rational)


def render_stream(f) -> str:
    """The stream literal ``parse_stream`` reads back as f."""
    pre = ",".join(str(v) for v in f.preperiod)
    cyc = ",".join(str(v) for v in f.cycle)
    return f"stream([{pre}];[{cyc}])"


def render_set(s) -> str:
    """A set expression ``parse_set`` reads back as s."""
    if s == empty():
        return "empty"
    if s == naturals():
        return "nat"
    if s == odds():
        return "odds"
    if s == evens():
        return "evens"
    terms = []
    for n in range(1, s.pre_len + 1):
        if (s.pre_mask >> (n - 1)) & 1:
            terms.append(f"ap({n},1) & !ap({n + 1},1)")  # the singleton {n}
    for r in sorted(s.residues):
        a = first_tail_element(s, r)
        if s.period == a and s.pre_len == 0:
            terms.append(f"multiples({s.period})")
        else:
            terms.append(f"ap({a},{s.period})")
    return " | ".join(terms)


def render_charge(mu) -> str:
    """A charge expression ``parse_charge`` reads back as mu."""
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


EO_MDP_TEXT = """
mdp  # three states, top/bottom choice at state 1
initial 1
state 1
  action T reward 1 goto 2
  action B reward 0 goto 3
state 2
  action c reward 0 goto 1
state 3
  action c reward 1 goto 1
"""


# ---- words and error positions ------------------------------------------

class Token(NamedTuple):
    kind: str  # NAME | INT | PUNCT | END
    text: str
    line: int
    col: int


def ref_tokenize(text):
    """A character loop over the grammar's tokens: decimal digits, a
    name, one punctuation character, and END."""
    out = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalnum() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in "()[]{}|&!,:;/=-":
            out.append(Token("PUNCT", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("END", "", line, col))
    return out


def place(text, i):
    """(line, col) of the parser's error at word i of text."""
    err = _Parser(text).error("x", i)
    return err.line, err.col


GRAMMAR_CHARS = "abmpxyzAZ_0123456789()[]{}|&!,:;/=-"
ascii_texts = st.lists(
    st.one_of(st.sampled_from(GRAMMAR_CHARS + " \t\r\n#@."),
              st.sampled_from(["odds", "ap", "12", "007", "x_1", " # note", "#", "\n", "  "])),
    max_size=40).map("".join)
# a No digit (a name), a letter, a \d digit, a vertical tab, a no-break space
mixed_texts = st.lists(st.one_of(ascii_texts, st.sampled_from("²é١\x0b\u00a0")),
                       max_size=6).map("".join)


@given(st.one_of(ascii_texts, mixed_texts))
def test_tokenize_matches_reference(text):
    """The parser's split of a text into words, and the place of an error
    at each word (END included), are the reference's tokens; a bad
    character is raised where the reference raises it."""
    try:
        tokens = ref_tokenize(text)
    except ParseError as ref_err:
        with pytest.raises(ParseError) as err:
            _Parser(text)
        assert (err.value.line, err.value.col, err.value.message) == \
            (ref_err.line, ref_err.col, ref_err.message)
    else:
        assert _Parser(text).words == [t.text for t in tokens]
        assert [place(text, i) for i in range(len(tokens))] == [(t.line, t.col) for t in tokens]


@given(st.one_of(ascii_texts, mixed_texts))
def test_parser_words_are_the_token_texts(text):
    """Every parser raises a bad character where the reference does;
    otherwise the parser's words are the reference's token texts."""
    try:
        tokens = ref_tokenize(text)
    except ParseError as ref_err:
        for parse in PARSERS:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.col, err.value.message) == \
                (ref_err.line, ref_err.col, ref_err.message)
    else:
        assert _Parser(text).words == [t.text for t in tokens]


def test_error_at_end_after_trailing_comment():
    # END sits just past the last character outside the comment
    assert place("odds  # c", 1) == (1, 7)
    assert place("odds\n# c", 1) == (2, 1)
    assert place("odds # c\n", 1) == (2, 1)


def test_bad_character_in_an_accepted_last_word():
    # a state with no actions can end an MDP file, so no later error
    # reports the character
    with pytest.raises(ParseError) as err:
        parse_mdp("mdp\ninitial a\nstate a\n  action x reward 0 goto a\nstate @\n# c")
    assert (err.value.line, err.value.col, err.value.message) == \
        (5, 7, "unexpected character '@'")


@pytest.mark.parametrize("parse, text", [
    (parse_set, "multiples(²)"), (parse_set, "ap(1,²)"), (parse_charge, "geometric(²/3)"),
    (parse_charge, "pointmass(²)"), (parse_stream, "stream([²];[1])"), (parse_rational, "²"),
    (parse_mdp, "mdp\ninitial a\nstate a\n  action x reward ² goto a"),
])
def test_non_decimal_digits_are_parse_errors(parse, text):
    # '²'.isdigit() holds, but int() rejects it
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "expected a number, got '²'" in err.value.message


def test_integer_literal_over_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_set("odds | multiples(" + "1" * 5000 + ")")
    assert (err.value.line, err.value.col) == (1, 18)
    assert "Exceeds the limit" in err.value.message


# ---- rationals -----------------------------------------------------------

def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational("0") == 0
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("3 4")


# ---- set expressions -----------------------------------------------------

def test_parse_set_atoms():
    assert parse_set("odds") == odds()
    assert parse_set("evens") == evens()
    assert parse_set("nat") == naturals()
    assert parse_set("empty") == empty()
    assert parse_set("multiples(6)") == multiples(6)
    assert parse_set("ap(3, 4)") == arithmetic(3, 4)
    assert parse_set("shift(odds, 1)") == evens()
    assert parse_set("shift(evens, -1)") == odds()
    assert parse_set("contract(multiples(6), 2)") == multiples(3)


def test_parse_set_precedence():
    # ! binds tighter than &, & tighter than |
    assert parse_set("odds | evens & multiples(4)") == \
        union(odds(), intersect(evens(), multiples(4)))
    assert parse_set("!odds & multiples(4)") == \
        intersect(complement(odds()), multiples(4))
    assert parse_set("!(odds & multiples(4))") == \
        complement(intersect(odds(), multiples(4)))


def test_parse_set_errors():
    with pytest.raises(ParseError) as err:
        parse_set("odds |")
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(ParseError):
        parse_set("frobnicate(3)")
    with pytest.raises(ParseError):
        parse_set("multiples(0)")
    with pytest.raises(ParseError):
        parse_set("odds evens")
    with pytest.raises(ParseError):
        parse_set("ap(1 2)")


@given(periodic_sets())
def test_render_set_round_trip(s):
    assert parse_set(render_set(s)) == s


# ---- charge expressions --------------------------------------------------

def test_parse_charge_atoms():
    assert parse_charge("frequency") == Frequency()
    assert parse_charge("dyadiclimit") == DyadicLimit()
    assert parse_charge("geometric(1/2)") == Geometric(Fraction(1, 2))
    assert parse_charge("pointmass(7)") == PointMass(7)
    assert parse_charge("restrict(frequency, odds)") == \
        Restrict(Frequency(), odds())
    assert parse_charge("mix(1/2: frequency, 1/2: dyadiclimit)") == \
        Mix(((Fraction(1, 2), Frequency()), (Fraction(1, 2), DyadicLimit())))


def test_parse_charge_errors():
    with pytest.raises(ParseError):
        parse_charge("geometric(1)")
    with pytest.raises(ParseError):
        parse_charge("pointmass(0)")
    with pytest.raises(ParseError):
        parse_charge("mix(1/2: frequency)")  # weights must sum to 1
    with pytest.raises(ParseError):
        parse_charge("nothere")


def test_render_charge_round_trip():
    for mu in (Frequency(), DyadicLimit(), Geometric(Fraction(2, 5)),
               PointMass(3), Restrict(Frequency(), multiples(4)),
               Mix(((Fraction(1, 4), Geometric(Fraction(1, 2))),
                    (Fraction(3, 4), Restrict(DyadicLimit(), evens()))))):
        assert parse_charge(render_charge(mu)) == mu


# ---- stream literals -----------------------------------------------------

def test_parse_stream():
    assert parse_stream("stream([1, 1/2]; [0, -3/4])") == \
        stream([1, Fraction(1, 2)], [0, Fraction(-3, 4)])
    with pytest.raises(ParseError):
        parse_stream("stream([1]; [])")


@given(rational_streams())
def test_render_stream_round_trip(f):
    assert parse_stream(render_stream(f)) == f


# ---- MDP files -----------------------------------------------------------

def test_parse_mdp_example():
    assert parse_mdp(EO_MDP_TEXT) == even_or_odd_mdp()


def test_parse_mdp_dist_rows():
    text = """
    mdp
    initial a
    state a
      action go reward 1/2 dist a: 1/3 b: 2/3
    state b
      action stop reward 0 goto b
    """
    m = parse_mdp(text)
    assert validate(m) == []
    assert (m.states, m.actions) == (("a", "b"), (("go",), ("stop",)))
    assert m.transitions[0][0] == (Fraction(1, 3), Fraction(2, 3))


def test_parse_mdp_errors():
    with pytest.raises(ParseError):
        parse_mdp("initial a")  # missing header
    with pytest.raises(ParseError):
        parse_mdp("mdp\nstate a\n  action x reward 1 goto zz\ninitial a")
    with pytest.raises(ParseError):
        parse_mdp("mdp\ninitial zz\nstate a\n  action x reward 1 goto a")
    with pytest.raises(ParseError):
        parse_mdp("mdp\ninitial a\nstate a\nstate a")
    with pytest.raises(ParseError):
        parse_mdp("mdp\ninitial a\n  action x reward 1 goto a")
    with pytest.raises(ParseError):
        parse_mdp("mdp\ninitial a\nstate a\n  action x reward 1 dist")


def test_parse_mdp_row_sums_left_to_validate():
    text = """
    mdp
    initial a
    state a
      action x reward 0 dist a: 1/3
    """
    m = parse_mdp(text)  # grammatical, but probabilistically broken
    assert [p.kind for p in validate(m)] == ["RowSumError"]


def test_dist_targets_may_be_named_like_file_keywords():
    """A ``dist`` target named ``state``, ``action`` or ``initial`` is a
    target when ':' follows it, as such a state can already be declared,
    be the initial state and be a ``goto`` target."""
    m = parse_mdp("""
    mdp
    initial start
    state start
      action go reward 1 dist initial: 1/2 start: 1/2
    state initial
      action action reward 0 dist state: 1
    state state
      action x reward 1/3 dist action: 1/4 initial: 3/4
    state action
      action initial reward 0 goto start
    """)
    states = ("start", "initial", "state", "action")
    assert m == build_mdp(
        states, "start", {"start": ["go"], "initial": ["action"], "state": ["x"],
                          "action": ["initial"]},
        {("start", "go"): 1, ("initial", "action"): 0, ("state", "x"): Fraction(1, 3),
         ("action", "initial"): 0},
        {("start", "go"): {"initial": Fraction(1, 2), "start": Fraction(1, 2)},
         ("initial", "action"): {"state": 1},
         ("state", "x"): {"action": Fraction(1, 4), "initial": Fraction(3, 4)},
         ("action", "initial"): {"start": 1}})
    assert validate(m) == []


# ---- strategy files ------------------------------------------------------

def test_parse_stationary_strategy():
    m = even_or_odd_mdp()
    assert parse_strategy("stationary { 1: T }", m) == stay_like(m)
    # omitted states default to the first declared action
    assert parse_strategy("stationary { }", m) == stay_like(m)


def stay_like(m):
    from chargemdp.mdp import stationary
    return stationary({"1": "T", "2": "c", "3": "c"})


def test_parse_randomized_strategy():
    m = even_or_odd_mdp()
    sigma = parse_strategy("stationary { 1: T:1/3 B:2/3 }", m)
    assert dict(sigma.rows[0])["1"] == (("B", Fraction(2, 3)), ("T", Fraction(1, 3)))


SPLIT_MDP_TEXT = """
mdp
initial s
state s
  action x reward 0 dist a:1/2 b:1/2
  action y reward 0 dist a:1/3 b:2/3
state a
  action x reward 1 goto b
  action y reward 0 goto a
state b
  action x reward 0 goto a
  action y reward 1/2 goto b
"""


def test_stationary_file_is_the_one_phase_periodic_file():
    m = parse_mdp(SPLIT_MDP_TEXT)
    sigma = parse_strategy("stationary { s: x:1/2 y:1/2 a: x b: x }", m)
    assert sigma == parse_strategy(
        "periodic preperiod=0 period=1 { phase 1 state s: x:1/2 y:1/2 "
        "phase 1 state a: x phase 1 state b: x }", m)
    got = [payoff(m, sigma, parse_charge(mu))
           for mu in ("frequency", "dyadiclimit", "geometric(2/3)")]
    assert got == [Fraction(1, 2), Fraction(5, 12), Fraction(29, 90)]


def test_parse_periodic_strategy():
    m = even_or_odd_mdp()
    sigma = parse_strategy(
        "periodic preperiod=0 period=4 { phase 3 state 1: B }", m)
    assert sigma == alternating_strategy()


CROSS_MDP_TEXT = """
mdp
initial s
state s
  action t reward 1 goto t
  action u reward 0 goto s
  action phase reward 1/2 goto s
state t
  action s reward 0 goto s
"""


def test_a_weighted_cell_ends_where_the_next_cell_starts():
    """``t`` is a state and an action of ``s``, and ``phase`` an action of
    ``s``: a weight is a number, so ``t: s`` and ``phase 2`` start the
    next cell in either order of the cells."""
    m = parse_mdp(CROSS_MDP_TEXT)
    half = Fraction(1, 2)
    want = stationary({"s": {"t": half, "u": half}, "t": "s"})
    assert parse_strategy("stationary { s: t:1/2 u:1/2 t: s }", m) == want
    assert parse_strategy("stationary { t: s s: t:1/2 u:1/2 }", m) == want
    assert parse_strategy("stationary { s: t:1/4 u:1/2 t: 1/4 }", m) == want
    assert parse_strategy(
        "periodic preperiod=0 period=2 { phase 1 state s: phase:1/2 u:1/2 phase 2 state s: u }",
        m) == periodic([], [{"s": {"phase": half, "u": half}, "t": "s"}, {"s": "u", "t": "s"}])
    with pytest.raises(ParseError, match="expected a number, got 's'"):
        parse_strategy("periodic preperiod=0 period=1 { phase 1 state s: t:1/2 u:1/2 t: s }", m)
    with pytest.raises(ParseError, match="expected a number, got 's'"):
        parse_strategy("stationary { s: t: s }", m)


NUMERIC_ACTIONS_MDP_TEXT = """
mdp
initial s
state s
  action t reward 1 goto t
  action u reward 0 goto s
state t
  action 1 reward 0 goto s
  action 0 reward 1 goto s
"""


def test_a_numeric_action_starts_the_next_cell_once_the_weights_sum_to_one():
    """``t`` is a state and an action of ``s``, and ``0`` an action of
    ``t``: once ``s``'s weights sum to 1, ``t: 0`` is ``t``'s cell in
    either order of the cells; below 1 the number is still a weight."""
    m = parse_mdp(NUMERIC_ACTIONS_MDP_TEXT)
    half = Fraction(1, 2)
    want = stationary({"s": {"t": half, "u": half}, "t": "0"})
    assert parse_strategy("stationary { s: t:1/2 u:1/2 t: 0 }", m) == want
    assert parse_strategy("stationary { t: 0 s: t:1/2 u:1/2 }", m) == want
    assert parse_strategy("stationary { s: t:1/4 u:1/2 t: 1/4 }", m) == \
        stationary({"s": {"t": half, "u": half}, "t": "1"})


def test_parse_strategy_errors():
    m = even_or_odd_mdp()
    with pytest.raises(ParseError):
        parse_strategy("stationary { zz: T }", m)
    with pytest.raises(ParseError):
        parse_strategy("stationary { 1: Q }", m)
    with pytest.raises(ParseError):
        parse_strategy("periodic preperiod=0 period=2 { phase 9 state 1: T }", m)
    with pytest.raises(ParseError):
        parse_strategy("wander { }", m)


def test_parse_strategy_bounds_its_cells(monkeypatch):
    # one phase of four names a cell: (1 + 1) * 3 states = 6 cells, the
    # three cell-less phases sharing one default row
    m = even_or_odd_mdp()
    text = "periodic preperiod=0 period=4 { phase 3 state 1: B }"
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 5)
    with pytest.raises(BudgetExceeded, match="^6 strategy cells exceeds cap 5$"):
        parse_strategy(text, m)
    monkeypatch.setattr(mdp_module, "STRATEGY_CAP", 6)
    assert parse_strategy(text, m) == alternating_strategy()


# ---- range errors from the constructors ----------------------------------

def eo_strategy(text):
    return parse_strategy(text, even_or_odd_mdp())


@pytest.mark.parametrize("parse, text, line, col", [
    (parse_set, "multiples(0)", 1, 1),
    (parse_set, "ap(0, 1)", 1, 1),
    (parse_set, "ap(1,0)", 1, 1),
    (parse_set, "contract(odds, 0)", 1, 1),
    (parse_set, "odds | multiples(0)", 1, 8),
    (parse_set, "odds |\n  multiples(0)", 2, 3),
    (parse_set, "shift(contract(evens, 0), 1)", 1, 7),
    (parse_charge, "geometric(1)", 1, 1),
    (parse_charge, "geometric(0)", 1, 1),
    (parse_charge, "geometric(-1/2)", 1, 1),
    (parse_charge, "pointmass(0)", 1, 1),
    (parse_charge, "mix(1/2: frequency)", 1, 1),
    (parse_charge, "mix(1/2: frequency, -1/2: dyadiclimit, 1: frequency)", 1, 1),
    (parse_charge, "restrict(geometric(3/2), odds)", 1, 10),
    (parse_charge, "mix(1: restrict(frequency, multiples(0)))", 1, 28),
    (parse_stream, "stream([1];[])", 1, 1),
    (parse_stream, "stream([]; [])", 1, 1),
    (parse_rational, "1/0 # c", 1, 5),
    (eo_strategy, "periodic preperiod=0 period=0 { }", 1, 1),
    (eo_strategy, "periodic preperiod=2 period=0 {\n}", 1, 1),
])
def test_range_errors_keep_their_positions(parse, text, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("text, line, col, state, phase", [
    ("stationary { 1: T 1: B }", 1, 19, "1", 1),
    ("stationary {\n  2: c\n  1: B\n  2: c\n}", 4, 3, "2", 1),
    ("periodic preperiod=1 period=2 { phase 2 state 1: B phase 1 state 1: B "
     "phase 2 state 1: T }", 1, 85, "1", 2),
])
def test_a_state_given_twice_in_one_phase_is_rejected(text, line, col, state, phase):
    with pytest.raises(ParseError) as err:
        eo_strategy(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert err.value.message == f"state {state!r} given twice in phase {phase}"


@pytest.mark.parametrize("text, where", [
    ("stationary { 1: T:1/2 B:1/3 }", "state '1'"),
    ("stationary { 1: T:-1/2 B:3/2 }", "state '1'"),
    ("periodic preperiod=1 period=1 { phase 2 state 1: T:1/2 B:1/3 }", "phase 2, state '1'"),
])
def test_parse_strategy_bad_probabilities(text, where):
    with pytest.raises(ParseError) as err:
        eo_strategy(text)
    assert (err.value.line, err.value.col) == (1, 1)
    assert f"action distribution at {where} must sum to 1" in err.value.message


# ---- phases that share the default row ------------------------------------

def eo_pure(preperiod: int, actions: str) -> PeriodicMarkovStrategy:
    """The even_or_odd_mdp strategy that plays actions[k] at state 1 in
    phase k + 1 and c elsewhere, as its literal tuple."""
    one = Fraction(1)
    return PeriodicMarkovStrategy(preperiod, len(actions) - preperiod, tuple(
        (("1", ((a, one),)), ("2", (("c", one),)), ("3", (("c", one),))) for a in actions))


def test_periodic_reads_every_fresh_row_of_a_generator():
    """``periodic`` normalizes a row object once.  A generator's fresh rows
    are freed as it goes on, so without the memo holding them the row of
    phase 3 could be taken for the row of phase 1 by its id."""
    def rows(pattern):
        return ({"1": a, "2": "c", "3": "c"} for a in pattern)
    assert periodic([], rows("TTTTT")) == eo_pure(0, "T")
    assert periodic([], rows("BTTBTTB")) == eo_pure(0, "BTTBTTB")
    assert periodic(rows("TT"), rows("BTB")) == eo_pure(2, "TTBTB")


def test_a_bad_cell_among_default_phases_reports_its_phase():
    with pytest.raises(ParseError) as err:
        eo_strategy("periodic preperiod=2 period=3 { phase 3 state 1: T:1/2 B:1/3 }")
    assert str(err.value) == ("line 1, col 1: action distribution at phase 3, state '1' must "
                              "sum to 1: (('B', Fraction(1, 3)), ('T', Fraction(1, 2)))")


def test_a_cell_leaves_the_other_phases_at_the_default():
    assert eo_strategy("periodic preperiod=1 period=3 { phase 2 state 1: B }") == eo_pure(0, "TBT")
    assert eo_strategy("periodic preperiod=3 period=1 { phase 3 state 1: B }") == eo_pure(3, "TTBT")


def test_parse_mdp_reports_unknown_states_at_their_token():
    text = ("mdp\ninitial a\nstate a\n  action x reward 1 goto {}\n"
            "state b\n  action y reward 0 dist a: 1/2 {}: 1/2\n")
    with pytest.raises(ParseError) as err:
        parse_mdp(text.format("zz", "yy"))
    assert (err.value.line, err.value.col) == (4, 26)
    assert "unknown state 'zz'" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_mdp(text.format("b", "yy"))
    assert (err.value.line, err.value.col) == (6, 33)
    with pytest.raises(ParseError) as err:
        parse_mdp("mdp\ninitial zz\nstate a\n  action x reward 1 goto a")
    assert (err.value.line, err.value.col) == (2, 9)
    assert "unknown initial state 'zz'" in err.value.message


def test_parse_mdp_rejects_a_repeated_action_or_initial_line():
    """A second row for one action, or a second initial line, is an
    error at the repeat, not a silent replacement of the first."""
    with pytest.raises(ParseError) as err:
        parse_mdp("mdp\ninitial a\nstate a\n  action x reward 1 goto a\n"
                  "  action x reward 5 goto a")
    assert (err.value.line, err.value.col) == (5, 10)
    assert "duplicate action 'x' in state 'a'" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_mdp("mdp\ninitial a\nstate a\n  action x reward 1 goto b\n"
                  "state b\n  action x reward 0 goto a\ninitial b")
    assert (err.value.line, err.value.col) == (7, 1)
    assert "repeated 'initial' line" in err.value.message


def test_large_files_parse_in_linear_time():
    """Duplicate states were found by scanning the list of states, and
    every strategy cell and default entry by ``states.index``: about
    52 s for the three parses of valid or late-failing files, against
    about 5 s with one set and one state -> actions dict (Python 3.11,
    one core).  The misspelled header is placed from the first word
    alone, not by a second scan of the whole file."""
    n = 20000
    body = "".join(f"state s{i}\n  action x reward 0 goto s{(i + 1) % n}\n"
                   f"  action y reward 1 goto s{i}\n" for i in range(n))
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_mdp("mdp\ninitial s0\n" + body + "state s7\n")
    assert (err.value.line, err.value.col) == (3 * n + 3, 1)
    assert "duplicate state 's7'" in err.value.message
    with pytest.raises(ParseError) as err:
        parse_mdp("mdq\ninitial s0\n" + body)
    assert (err.value.line, err.value.col, err.value.message) == (1, 1, "expected 'mdp' header")
    m = parse_mdp("mdp\ninitial s0\n" + body)
    sigma = parse_strategy("periodic preperiod=0 period=2 {\n" + "".join(
        f"phase {k} state s{i}: y\n" for k in (1, 2) for i in range(n)) + "}\n", m)
    assert (sigma.preperiod_length, sigma.period) == (0, 1)
    assert time.perf_counter() - start < 20


# ---- fuzzing: one-character edits of valid inputs -------------------------

# integers stay small: a large shift or multiples would allocate huge masks
VALID_INPUTS = [
    "odds", "multiples(6)", "ap(3, 4)", "shift(evens, -1)", "contract(multiples(6), 2)",
    "odds | evens & multiples(4)", "!(odds & multiples(4))",
    "geometric(1/2)", "pointmass(7)", "restrict(frequency, odds)",
    "mix(1/2: frequency, 1/2: dyadiclimit)", "stream([1, 1/2]; [0, -3/4])", "-2",
    EO_MDP_TEXT, "stationary { 1: T:1/3 B:2/3 }",
    "periodic preperiod=0 period=4 { phase 3 state 1: B }",
]
PARSERS = [parse_set, parse_charge, parse_stream, parse_rational, parse_mdp, eo_strategy]


@st.composite
def edited_inputs(draw):
    text = draw(st.sampled_from(VALID_INPUTS))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.one_of(st.sampled_from(GRAMMAR_CHARS + " \n#"), st.sampled_from("²é\t")))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + (ch if op == "replace" else "") + text[i + 1:]
    return text


@settings(max_examples=300)
@given(edited_inputs())
def test_parsers_return_or_raise_parse_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ParseError:
            pass


# ---- outcome pin: every one-character edit of the valid inputs ------------

PIN_CHARS = "0(\n#²@"  # a digit, punctuation, a newline, a comment, a No digit, a bad character
PIN_DIGEST = "a39204372e5de221bbd79ead50db3e59b43f96a2e32328f53118bb5d679fd2c8"


def one_char_edits(text, chars):
    for i in range(len(text) + 1):
        for ch in chars:
            yield text[:i] + ch + text[i:]
    for i in range(len(text)):
        yield text[:i] + text[i + 1:]
        for ch in chars:
            if ch != text[i]:
                yield text[:i] + ch + text[i + 1:]


def outcome(parse, text) -> str:
    """The parsed value's repr, or the error's (line, col, message)."""
    try:
        return repr(parse(text))
    except ParseError as err:
        return repr((err.line, err.col, err.message))


def test_parse_outcomes_of_one_char_edits_are_pinned():
    """6633 texts through all six parsers; the digest is the same on
    Python 3.10-3.13 and under any PYTHONHASHSEED."""
    h = hashlib.sha256()
    for valid in VALID_INPUTS:
        for text in one_char_edits(valid, PIN_CHARS):
            for parse in PARSERS:
                h.update(outcome(parse, text).encode() + b"\0")
    assert h.hexdigest() == PIN_DIGEST

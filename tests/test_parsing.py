"""Text grammars: round trips, precedence, file formats, error positions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargemdp.charges import (DyadicLimit, Frequency, Geometric, Mix,
                               PointMass, Restrict)
from chargemdp.counterexamples import (alternating_strategy, even_or_odd_mdp,
                                       stay_strategy)
from chargemdp.mdp import validate
from chargemdp.parsing import (ParseError, Token, _parse, _Parser,
                               parse_charge, parse_mdp, parse_set,
                               parse_strategy, parse_stream, render_charge,
                               render_set, tokenize)
from chargemdp.periodic_sets import (arithmetic, complement, empty, evens,
                                     intersect, multiples, naturals, odds,
                                     shift, union)
from chargemdp.streams import stream

from conftest import periodic_sets, rational_streams


def parse_rational(text: str) -> Fraction:
    """A lone rational literal, as the MDP and strategy files read them."""
    return _parse(text, _Parser.expect_rational)


def render_stream(f) -> str:
    """The stream literal ``parse_stream`` reads back as f."""
    pre = ",".join(str(v) for v in f.preperiod)
    cyc = ",".join(str(v) for v in f.cycle)
    return f"stream([{pre}];[{cyc}])"


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


# ---- tokenizer -----------------------------------------------------------

def ref_tokenize(text):
    """The character loop that the regular-expression tokenizer replaced."""
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
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
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


GRAMMAR_CHARS = "abmpxyzAZ_0123456789()[]{}|&!,:;/=-"
ascii_texts = st.lists(
    st.one_of(st.sampled_from(GRAMMAR_CHARS + " \t\r\n#@."),
              st.sampled_from(["odds", "ap", "12", "007", "x_1", " # note", "#", "\n", "  "])),
    max_size=40).map("".join)


@given(ascii_texts)
def test_tokenize_matches_reference(text):
    try:
        expected = ref_tokenize(text)
    except ParseError as ref_err:
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert (err.value.line, err.value.col, err.value.message) == \
            (ref_err.line, ref_err.col, ref_err.message)
    else:
        assert tokenize(text) == expected


def test_tokenize_end_after_trailing_comment():
    # END sits just past the last character outside the comment
    assert tokenize("odds  # c")[-1] == Token("END", "", 1, 7)
    assert tokenize("odds\n# c")[-1] == Token("END", "", 2, 1)
    assert tokenize("odds # c\n")[-1] == Token("END", "", 2, 1)


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
    assert m.transition("a", "go") == {"a": Fraction(1, 3), "b": Fraction(2, 3)}


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
    assert sigma.dist("1") == (("B", Fraction(2, 3)), ("T", Fraction(1, 3)))


def test_parse_periodic_strategy():
    m = even_or_odd_mdp()
    sigma = parse_strategy(
        "periodic preperiod=0 period=4 { phase 3 state 1: B }", m)
    assert sigma == alternating_strategy()


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

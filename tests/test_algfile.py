"""The .alg definition format: parsing, errors with locations, round trips."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import op
from latcop import cli
from latcop.algebra import isomorphic
from latcop.algebra import term_table
from latcop.algfile import MAX_TERM_DEPTH, export_entry, parse_algebra_file, parse_term_text
from latcop.catalog import make
from latcop.distlat import d_reduct
from latcop.errors import ParseError

DATA = Path(__file__).parent / "data"

TWO_LATTICE = """\
# the two-element bounded lattice
algebra two size 2
elements 0 1
op meet 2
op join 2
op zero 0
op one 0
table meet = 0 0 0 1
table join = 0 1 1 1
table zero = 0
table one = 1
reduct meet=(meet x0 x1) join=(join x0 x1) bot=(zero) top=(one)
carrier {1}
"""


class TestParse:
    def test_two_element_lattice(self):
        parsed = parse_algebra_file(TWO_LATTICE)
        assert len(parsed.algebras) == 1
        pa = parsed.algebras[0]
        assert pa.algebra.size == 2
        assert op(pa.algebra, "join", (0, 1)) == 1
        assert pa.carriers == (frozenset({1}),)
        d_reduct(pa.algebra, pa.reduct)

    def test_labels_in_tables(self):
        text = TWO_LATTICE.replace("table join = 0 1 1 1", "table join = 0 1 1 one")
        # 'one' is not an element label; element labels are 0 and 1
        with pytest.raises(ParseError):
            parse_algebra_file(text)
        text2 = TWO_LATTICE.replace("table zero = 0", "table zero = 0")
        parsed = parse_algebra_file(text2.replace("table one = 1", "table one = 1"))
        assert op(parsed.algebras[0].algebra, "one") == 1
        # demorgan4's labels a and b are not digits, so they are read as labels
        text = (DATA / "demorgan4.alg").read_text()
        labelled = parse_algebra_file(text.replace("table neg = 3 1 2 0", "table neg = 3 a b 0"))
        assert labelled.algebras[0].algebra == parse_algebra_file(text).algebras[0].algebra

    def test_wrong_table_length(self):
        text = TWO_LATTICE.replace("table meet = 0 0 0 1", "table meet = 0 0 0")
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(text)
        assert "length 3" in str(exc.value) and "expected 4" in str(exc.value)
        assert exc.value.line == 8  # the table line, counting the comment

    def test_undefined_symbol_in_table(self):
        text = TWO_LATTICE + "table extra = 0\n"
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(text)
        assert "undeclared" in str(exc.value)

    def test_value_out_of_range(self):
        text = TWO_LATTICE.replace("table neg", "table nope").replace(
            "table zero = 0", "table zero = 5"
        )
        with pytest.raises(ParseError):
            parse_algebra_file(text)

    def test_missing_table(self):
        text = TWO_LATTICE.replace("table one = 1\n", "")
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(text)
        assert "missing table" in str(exc.value)

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_algebra_file(TWO_LATTICE + "frobnicate 1\n")
        assert exc.value.line == len(TWO_LATTICE.splitlines()) + 1

    def test_multiple_algebras(self):
        text = TWO_LATTICE + "\n" + TWO_LATTICE.replace("algebra two", "algebra again")
        parsed = parse_algebra_file(text)
        assert [pa.algebra.name for pa in parsed.algebras] == ["two", "again"]

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_algebra_file("# nothing here\n")

    def test_carrier_with_labels(self):
        text = TWO_LATTICE.replace("carrier {1}", "carrier {1, 0}")
        parsed = parse_algebra_file(text)
        assert parsed.algebras[0].carriers == (frozenset({0, 1}),)


REDUCT = "reduct meet=(meet x0 x1) join=(join x0 x1) bot=(zero) top=(one)"


# (old line, new text, message fragment, line of the error); an empty old
# line appends the new text as line 14
PARSE_ERRORS = [
    (REDUCT, REDUCT.replace("(meet x0 x1)", "(frob x0 x1)"), "undefined symbol 'frob'", 12),
    (REDUCT, REDUCT.replace("bot=(zero)", "bot=meet"), "'meet' needs parentheses", 12),
    (REDUCT, "reduct (meet x0 x1)", "needs meet=/join=/bot=/top= fields", 12),
    (REDUCT, REDUCT.replace("(meet x0 x1)", "(meet x0"), "unexpected end of term", 12),
    (REDUCT, REDUCT.replace("(meet x0 x1)", "("), "unexpected end of term after '('", 12),
    (REDUCT, "reduct meet=(meet x0 x1) join=(join x0 x1)", "missing ['bot', 'top']", 12),
    ("", "op meet 2", "duplicate op 'meet'", 14),
    ("", "table one = 1", "duplicate table for 'one'", 14),
    ("", REDUCT, "duplicate reduct line", 14),
    ("algebra two size 2", "algebra two size two", "expected 'algebra NAME size N'", 2),
    ("algebra two size 2", "algebra two size 0", "size must be positive", 2),
    ("elements 0 1", "elements 0 1 2", "3 labels for universe of size 2", 3),
    ("elements 0 1", "elements 1 1", "labels must be distinct", 3),
    ("op meet 2", "op meet ²", "expected 'op SYM ARITY'", 4),
    ("table one = 1", "table one = ²", "neither an index nor a declared label", 11),
    ("carrier {1}", "carrier 1", "expected 'carrier {LABELS...}'", 13),
    ("carrier {1}", "carrier { }", "empty carrier set", 13),
    ("table one = 1", "table one = --1", "value '--1' is neither", 11),
    ("carrier {1}", "carrier {--1}", "'--1' is neither an index", 13),
    # the length is compared without forming 2**99999999999
    ("", "op f 99999999999\ntable f = 0 1", "length 2, expected 2**99999999999", 15),
    # a spec the terms parse into but DReductSpec refuses
    (REDUCT, REDUCT.replace("(meet x0 x1)", "(meet x0 x2)"), "meet/join terms may only use x0 and x1", 12),
    (REDUCT, REDUCT.replace("top=(one)", "top=(meet x0 x0)"), "bot/top terms must be closed", 12),
]


@pytest.mark.parametrize("old,new,message,line", PARSE_ERRORS, ids=[m for _, _, m, _ in PARSE_ERRORS])
def test_parse_error_names_its_line(old, new, message, line):
    text = TWO_LATTICE + new + "\n" if not old else TWO_LATTICE.replace(old, new)
    with pytest.raises(ParseError) as exc:
        parse_algebra_file(text)
    assert message in str(exc.value)
    assert exc.value.line == line


# single-character edits drawn from the format's own alphabet, plus a
# superscript digit, which str.isdigit accepts and int rejects
_EDIT_CHARS = st.sampled_from(list("0123456789abxyz ={}()#-\n") + ["²"])


@st.composite
def mutated_demorgan4(draw) -> str:
    text = (DATA / "demorgan4.alg").read_text()
    for _ in range(draw(st.integers(1, 4))):
        lines = text.splitlines(keepends=True)
        kind = draw(st.sampled_from(["insert", "delete", "replace", "drop line", "repeat line"]))
        if kind in ("drop line", "repeat line"):
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [] if kind == "drop line" else [lines[i]] * 2
            text = "".join(lines)
            continue
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        char = draw(_EDIT_CHARS)
        end = at + (kind != "insert")
        text = text[:at] + ("" if kind == "delete" else char) + text[end:]
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_demorgan4())
def test_mutated_file_exits_cleanly(tmp_path, text):
    # answered, unknown or bad input: never a traceback, never exit 3
    path = tmp_path / "mutant.alg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["classify", str(path)]) in (cli.EXIT_OK, cli.EXIT_UNKNOWN, cli.EXIT_INPUT)


class TestTerms:
    def test_prefix_parsing(self):
        sig = make("mv_chain", 2).algebra.signature
        t = parse_term_text("(oplus (neg x0) x1)", sig)
        assert str(t) == "(oplus (neg x0) x1)"

    def test_bare_nullary(self):
        sig = make("mv_chain", 2).algebra.signature
        assert str(parse_term_text("zero", sig)) == "(zero)"

    def test_arity_mismatch(self):
        sig = make("mv_chain", 2).algebra.signature
        with pytest.raises(ParseError):
            parse_term_text("(neg x0 x1)", sig)

    def test_trailing_tokens(self):
        sig = make("mv_chain", 2).algebra.signature
        with pytest.raises(ParseError):
            parse_term_text("(neg x0) x1", sig)

    def test_deepest_term_is_walked(self):
        # a term at the nesting limit is read, printed, compared (down to
        # its innermost variable), hashed and evaluated, inside this test's
        # own stack; one level more is refused
        mv = make("mv_chain", 2).algebra
        text = "(neg " * (MAX_TERM_DEPTH - 1) + "(oplus x0 x{})" + ")" * (MAX_TERM_DEPTH - 1)
        t, u = parse_term_text(text.format(1), mv.signature), parse_term_text(text.format(0), mv.signature)
        assert str(t) == text.format(1)
        assert t != u and t == parse_term_text(text.format(1), mv.signature)
        assert hash(t) == hash(parse_term_text(text.format(1), mv.signature))
        assert t.max_var == 1
        assert term_table(mv, t, 2).tolist() == term_table(mv, parse_term_text("(neg (oplus x0 x1))", mv.signature), 2).tolist()
        with pytest.raises(ParseError, match=f"^line 1, column 1: term nested more than {MAX_TERM_DEPTH} parentheses deep$"):
            parse_term_text("(neg " + text.format(1) + ")", mv.signature)


class TestShippedFile:
    def test_demorgan4_round_trips(self):
        entry = make("demorgan4")
        text = (DATA / "demorgan4.alg").read_text()
        parsed = parse_algebra_file(text)
        pa = parsed.algebras[0]
        assert pa.algebra == entry.algebra
        assert pa.reduct == entry.spec
        assert pa.carriers == entry.carriers
        assert parse_algebra_file(export_entry(entry)).algebras[0].algebra == entry.algebra

    def test_mv_reduct_terms_survive(self):
        entry = make("mv_chain", 3)
        pa = parse_algebra_file(export_entry(entry)).algebras[0]
        assert pa.reduct == entry.spec
        assert isomorphic(pa.algebra, entry.algebra) is not None

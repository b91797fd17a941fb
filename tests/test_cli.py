"""The command-line frontend: outputs, exit codes, determinism."""

import functools
import itertools
import json
import time
from pathlib import Path

import pytest

from conftest import count_hom_enumerations, fresh_entry
import latcop.algebra
import latcop.catalog
import latcop.cli
import latcop.duality
import latcop.piggyback
from latcop.catalog import make_id, table1_suite
from latcop.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_UNKNOWN, main
from latcop.errors import InternalError
from latcop.piggyback import carriers_of

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fresh_ids(monkeypatch):
    """Catalog ids resolve, for one test, to new copies of their algebras,
    one per id, which keep no hom-sets yet."""
    monkeypatch.setattr(latcop.cli, "make_id", functools.lru_cache(fresh_entry))


class TestClassify:
    def test_kleene_text_ends_with_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "kleene3")
        assert code == EXIT_OK
        assert out.rstrip().splitlines()[-1] == "E: no, S: yes"

    def test_file_input(self, capsys):
        code, out, _ = run(capsys, "classify", str(DATA / "demorgan4.alg"))
        assert code == EXIT_OK
        assert out.rstrip().splitlines()[-1] == "E: yes, S: yes"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "classify", "heyting_chain:3", "--json")
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["E"] == "yes" and doc["S"] == "no"
        assert "stopped" not in doc

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "classify", "mv_chain:2", "--json")
        _, out2, _ = run(capsys, "classify", "mv_chain:2", "--json")
        assert out1 == out2

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run(capsys, "classify", "pre_moisil_M0:4")
        assert code == EXIT_UNKNOWN
        assert "unknown" in out
        assert out.splitlines()[-1] == (
            "verdict: unknown (subalgebra enumeration needs generator size <= 12, got 16; "
            "stage 'subalgebra enumeration', budget 12, required 16)"
        )

    def test_unknown_json_keeps_the_budget_that_stopped_it(self, capsys):
        code, out, _ = run(capsys, "classify", "pseudo_b:4", "--json")
        doc = json.loads(out)
        assert code == EXIT_UNKNOWN
        assert doc["stopped"] == {"stage": "subalgebra enumeration", "budget": 12, "required": 17}
        assert doc["unknown"] == (
            "subalgebra enumeration needs generator size <= 12, got 17; "
            "stage 'subalgebra enumeration', budget 12, required 17"
        )

    def test_unknown_does_not_claim_trivial_class(self, capsys):
        code, out, _ = run(capsys, "classify", "pseudo_b:4")
        assert code == EXIT_UNKNOWN
        assert "unknown" in out and "trivial class" not in out

    def test_relation_budget_hit_after_the_verdict_keeps_it(self, monkeypatch, capsys):
        # the verdicts come from the root of the relation search; only the
        # listing of R stops at the budget, and the report names it
        monkeypatch.setattr(latcop.piggyback, "RELATION_NODE_BUDGET", 10)
        code, out, err = run(capsys, "classify", "pseudo_b:3", "--json")
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert (doc["E"], doc["S"], doc["unknown"]) == ("yes", "no", None)
        assert doc["relations"] == [{
            "omega1": "{T}",
            "omega2": "{T}",
            "count": None,
            "relations": None,
            "stopped": {"stage": "relation search", "budget": 10, "required": 11},
        }]
        code, out, err = run(capsys, "classify", "pseudo_b:3")
        assert (code, err) == (EXIT_OK, "")
        lines = out.splitlines()
        assert "  R[{T},{T}]: listing stopped (stage 'relation search', budget 10, required 11)" in lines
        assert lines[-1] == "E: yes, S: no"

    def test_hom_enumeration_budget(self, monkeypatch, capsys, fresh_ids):
        # End(heyting_chain(8)) has 64 maps; the stopped enumeration keeps
        # nothing, so the same algebra answers under the real budget
        budget = latcop.algebra.HOM_MAP_BUDGET
        monkeypatch.setattr(latcop.algebra, "HOM_MAP_BUDGET", 10)
        code, out, err = run(capsys, "classify", "heyting_chain:8", "--json")
        assert (code, err) == (EXIT_UNKNOWN, "")
        doc = json.loads(out)
        assert doc["stopped"] == {"stage": "hom enumeration", "budget": 10, "required": 11}
        assert doc["unknown"].endswith("; stage 'hom enumeration', budget 10, required 11")
        monkeypatch.setattr(latcop.algebra, "HOM_MAP_BUDGET", budget)
        code, out, _ = run(capsys, "classify", "heyting_chain:8")
        assert code == EXIT_OK and out.splitlines()[-1] == "E: yes, S: no"

    def test_only_the_stopped_pairs_lose_their_listing(self, monkeypatch, capsys):
        # of mv_chain(6)'s 36 carrier pairs two have two relations, whose
        # search needs more than two nodes; every other pair's root is closed
        _, full, _ = run(capsys, "classify", "mv_chain:6", "--json")
        want = json.loads(full)
        monkeypatch.setattr(latcop.piggyback, "RELATION_NODE_BUDGET", 2)
        code, out, _ = run(capsys, "classify", "mv_chain:6", "--json")
        doc = json.loads(out)
        assert code == EXIT_OK and (doc["E"], doc["S"]) == (want["E"], want["S"]) == ("no", "no")
        assert len(doc["relations"]) == len(want["relations"]) == 36
        for got, pair in zip(doc["relations"], want["relations"]):
            if pair["count"] == 2:
                assert (got["count"], got["relations"]) == (None, None)
                assert (got["stopped"]["stage"], got["stopped"]["budget"]) == ("relation search", 2)
            else:
                assert got == pair

    def test_bad_id(self, capsys):
        code, _, err = run(capsys, "classify", "not_a_thing")
        assert code == EXIT_INPUT and "error" in err

    @pytest.mark.parametrize("old,new,message", [
        ("table neg = 3 1 2 0", "table neg = 3 --1 2 0", "line 10, column 1: value '--1'"),
        ("carrier {1 3}", "carrier {1 --1}", "line 14, column 1: value '--1'"),
        ("table one = 3", "table one = 3\nop f 99999999999\ntable f = 0 1", "expected 4**99999999999"),
        ("carrier {1 3}", "carrier {0 3}", "[0, 3] is not a prime filter"),
    ], ids=["table value", "carrier value", "huge arity", "carrier not prime"])
    def test_malformed_alg_file_exits_2(self, capsys, tmp_path, old, new, message):
        path = tmp_path / "bad.alg"
        path.write_text((DATA / "demorgan4.alg").read_text().replace(old, new), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("source", ["mv_chain(3", "mv_chain:3)"])
    def test_unbalanced_parenthesis_exits_2(self, capsys, source):
        code, out, err = run(capsys, "classify", source)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: cannot parse catalog id {source!r}\n"

    def test_generators_with_different_reduct_specs_exit_2(self, capsys):
        code, out, err = run(capsys, "classify", "kleene3", "mv_chain:2")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: all input algebras must share one reduct specification\n"

    def test_alg_file_without_reduct_line(self, capsys, tmp_path):
        # the literal meet, join, zero and one stand in for the reduct
        text = (DATA / "demorgan4.alg").read_text()
        path = tmp_path / "noreduct.alg"
        path.write_text("".join(x for x in text.splitlines(keepends=True) if not x.startswith("reduct")), encoding="utf-8")
        code, out, _ = run(capsys, "classify", str(path))
        assert code == EXIT_OK and out.endswith("E: yes, S: yes\n")
        path.write_text(path.read_text().replace("zero", "bottom"), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "error: algebra 'demorgan4' has no reduct line and no literal meet/join/zero/one symbols\n"
        )

    def test_cap_raises_the_subalgebra_size_cap(self, capsys):
        code, out, _ = run(capsys, "classify", "mv_chain:12")
        assert code == EXIT_UNKNOWN and "stage 'subalgebra enumeration', budget 12, required 13" in out
        code, out, _ = run(capsys, "classify", "mv_chain:12", "--cap", "20")
        assert code == EXIT_OK and out.endswith("E: no, S: no\n")


ONE_ELEMENT = """algebra big size 1
op meet 2
op join 2
op zero 0
op one 0
op f {arity}
table meet = 0
table join = 0
table zero = 0
table one = 0
table f = 0
reduct meet=(meet x0 x1) join=(join x0 x1) bot=(zero) top=(one)
"""


class TestArityLimit:
    # a table is indexed with one numpy array per argument; past 63 every
    # command rejects the file before reading it further
    @pytest.mark.parametrize("argv", [
        ["classify"], ["duality"], ["coproduct"], ["free", "1"], ["reveng-check"], ["export-dot", "--reveng"],
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.parametrize("arity", [63, 64, 65, 99999999999])
    def test_arity_past_63_exits_2(self, capsys, tmp_path, argv, arity):
        path = tmp_path / "one.alg"
        path.write_text(ONE_ELEMENT.format(arity=arity), encoding="utf-8")
        code, out, err = run(capsys, *argv, str(path))
        if arity > 63:
            assert (code, out) == (EXIT_INPUT, "")
            assert err == f"error: arity {arity} of symbol 'f' is outside 0..63\n"
        elif argv[0] in ("classify", "free"):
            assert (code, err) == (EXIT_OK, "")
        else:
            # a one-element algebra has no carrier maps to separate with
            assert code == EXIT_INPUT and "does not separate" in err


class TestCapParsing:
    def exit_code(self, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return exc.value.code

    def test_bad_env_value(self, monkeypatch, capsys):
        monkeypatch.setenv("LATCOP_CAP", "abc")
        assert self.exit_code("classify", "kleene3") == EXIT_INPUT
        assert "positive integer" in capsys.readouterr().err

    def test_negative_cap(self, capsys):
        assert self.exit_code("classify", "kleene3", "--cap", "-5") == EXIT_INPUT

    def test_zero_cap(self, capsys):
        assert self.exit_code("free", "1", "kleene3", "--cap", "0") == EXIT_INPUT

    def test_negative_free_rank(self, capsys):
        assert self.exit_code("free", "-1", "kleene3") == EXIT_INPUT
        err = capsys.readouterr().err
        assert "non-negative integer" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("duality", "kleene3", "--cap", "5"),
            ("reveng-check", "kleene3", "--cap", "5"),
            ("table1", "--cap", "5"),
            ("export-dot", "kleene3", "--cap", "5"),
            ("reveng-check", "kleene3", "--json"),
            ("export-dot", "kleene3", "--json"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        assert self.exit_code(*argv) == EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [("duality", "kleene3"), ("reveng-check", "kleene3"), ("table1",), ("export-dot", "kleene3")]
    )
    def test_env_cap_unread_without_cap_flag(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("LATCOP_CAP", "abc")
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK, err

    @pytest.mark.parametrize(
        "argv", [("classify", "kleene3"), ("coproduct", "kleene3", "kleene3"), ("free", "1", "kleene3")]
    )
    def test_env_cap_checked_with_cap_flag(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("LATCOP_CAP", "abc")
        assert self.exit_code(*argv) == EXIT_INPUT
        assert "positive integer" in capsys.readouterr().err


class TestDuality:
    def test_demorgan_relation_printed(self, capsys):
        code, out, _ = run(capsys, "duality", "demorgan4")
        assert code == EXIT_OK
        assert "{(0,0),(0,a),(a,a),(b,0),(b,a),(b,b),(b,1),(1,a),(1,1)}" in out

    def test_omega_override(self, capsys):
        code, out, _ = run(capsys, "duality", "demorgan4", "--omega", "b,1")
        assert code == EXIT_OK
        assert "{b,1}" in out

    @pytest.mark.parametrize("ids", [("kleene3",), ("demorgan4", "kleene3")])
    def test_enumerates_each_hom_set_once(self, monkeypatch, capsys, fresh_ids, ids):
        # the carrier search and the alter ego read one enumeration per
        # ordered pair of sorts
        pairs = count_hom_enumerations(monkeypatch)
        code, out, _ = run(capsys, "duality", *ids)
        assert code == EXIT_OK and "(minimal size " in out
        assert pairs == list(itertools.product(ids, ids))

    def test_omega_sort_prefixed_chunks(self, capsys):
        # a 3 x 4 square: a pair read back with the wrong radix would show
        code, out, _ = run(capsys, "duality", "kleene3", "demorgan4", "--omega", "kleene3:1;demorgan4:a,1")
        assert code == EXIT_OK
        assert "carriers: {1}, {a,1}" in out.splitlines()
        assert "  R[{1},{a,1}] {(0,0),(0,a),(a,0),(a,a),(a,b),(a,1),(1,a),(1,1)}" in out.splitlines()

    def test_omega_numeric_indices(self, capsys):
        # demorgan4's labels are 0 a b 1: "2" is no label, so it is index 2 (b),
        # and "3" is index 3 (1)
        by_label = run(capsys, "duality", "demorgan4", "--omega", "b,1")
        assert run(capsys, "duality", "demorgan4", "--omega", "2,3") == by_label

    @pytest.mark.parametrize(
        "omega,message", [("zzz:1", "unknown sort 'zzz'"), (";", "gave no carriers"), ("²", "not an element")]
    )
    def test_omega_bad_list_exits_2(self, capsys, omega, message):
        code, _, err = run(capsys, "duality", "kleene3", "demorgan4", "--omega", omega)
        assert code == EXIT_INPUT and message in err

    @pytest.mark.parametrize("key", [entry.key for entry, _ in table1_suite()])
    def test_printed_carrier_labels_round_trip(self, capsys, key):
        # labels such as {(1,0),(1,1)} hold commas, so they are matched whole
        code, out, _ = run(capsys, "duality", key, "--json")
        assert code == EXIT_OK
        labels = json.loads(out)["omega"]
        entry = make_id(key)
        names = entry.algebra.element_names
        elements = {c.label(): sorted(c.elements) for c in carriers_of(entry.algebra, entry.spec)}

        def token(i: int) -> str:
            # a label shadows a digit: demorgan4's index 1 is 'a', since '1' names its top
            return names[i] if str(i) in names and names.index(str(i)) != i else str(i)

        by_index = ";".join(",".join(token(i) for i in elements[label]) for label in labels)
        by_label = run(capsys, "duality", key, "--json", "--omega", ";".join(labels))
        assert by_label == run(capsys, "duality", key, "--json", "--omega", by_index)
        assert by_label[0] == EXIT_OK

    def test_omega_must_separate(self, capsys):
        code, _, err = run(capsys, "duality", "kleene3", "--omega", "a,1")
        assert code == EXIT_INPUT and "separation" in err


class TestCoproduct:
    def test_demorgan_square(self, capsys):
        code, out, _ = run(capsys, "coproduct", "demorgan4", "demorgan4")
        assert code == EXIT_OK
        assert "size 16" in out
        assert out.count("injection from demorgan4") == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coproduct", "kleene3", "kleene3", "--json")
        doc = json.loads(out)
        assert doc["size"] == 3 and len(doc["injections"]) == 2

    def test_cap_sets_only_the_points_cap(self, capsys):
        # 8 points per sort fit under 100, and the E-functor keeps its own budget
        code, out, _ = run(capsys, "coproduct", "demorgan4", "demorgan4", "demorgan4", "--cap", "100")
        assert code == EXIT_OK and "size 256" in out
        code, out, err = run(capsys, "coproduct", "demorgan4", "demorgan4", "demorgan4", "--cap", "7")
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.endswith("stage 'structure product', budget 7, required 8\n")

    def test_raised_cap_keeps_the_visit_budget(self, capsys):
        # E(X) would have 65,536 elements; the search stops at the 2,236th,
        # the first whose tables pass the budget: 2 * 2236**2 + 2236 + 2
        code, out, err = run(capsys, "coproduct", *["demorgan4"] * 4, "--cap", "10000")
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.endswith("stage 'table build', budget 10000000, required 10001630\n")


class TestTableBudget:
    """A tiny ``TABLE_ENTRY_BUDGET`` stands in for inputs whose tables
    would not fit, such as coproduct demorgan4 x4."""

    def test_coproduct(self, monkeypatch, capsys):
        monkeypatch.setattr(latcop.algebra, "TABLE_ENTRY_BUDGET", 10_000)
        code, out, err = run(capsys, "coproduct", "demorgan4", "demorgan4", "demorgan4")
        assert code == EXIT_UNKNOWN and out == ""
        # E(X) has 256 elements; the search stops at the 71st, the first
        # whose tables pass the budget: 2 * 71**2 + 71 + 2 entries
        assert err == (
            "unknown: subpower tables need 10155+ entries, budget is 10000; "
            "stage 'table build', budget 10000, required 10155\n"
        )

    def test_free(self, monkeypatch, capsys):
        monkeypatch.setattr(latcop.algebra, "TABLE_ENTRY_BUDGET", 1000)
        code, out, err = run(capsys, "free", "2", "kleene3")
        assert code == EXIT_UNKNOWN and out == ""
        # F(2) has 84 elements; the E-functor search stops at the 23rd:
        # 2 * 23**2 + 23 + 2 entries
        assert err == (
            "unknown: subpower tables need 1083+ entries, budget is 1000; "
            "stage 'table build', budget 1000, required 1083\n"
        )

    def test_classify(self, monkeypatch, capsys):
        monkeypatch.setattr(latcop.algebra, "TABLE_ENTRY_BUDGET", 10)
        code, out, err = run(capsys, "classify", "mv_chain:2", "mv_chain:3", "--json")
        assert code == EXIT_UNKNOWN and err == ""
        # the chains have no homomorphism into each other, so their product
        # is never built; the first table past the budget is the relation
        # search's 3 x 3 square of mv_chain(2): 9**2 + 9 + 1 entries
        assert json.loads(out)["unknown"] == (
            "subpower tables need 91+ entries, budget is 10; stage 'table build', budget 10, required 91"
        )


class TestFree:
    def test_kleene_rank1(self, capsys):
        code, out, _ = run(capsys, "free", "1", "kleene3")
        assert code == EXIT_OK and "size 6" in out

    def test_cap_is_the_points_per_sort(self, capsys):
        # M~^2 over demorgan4 has 4^2 points per sort, M~^7 has 4^7
        code, out, _ = run(capsys, "free", "2", "demorgan4")
        assert code == EXIT_OK
        assert out == "free algebra on 2 generator(s) over ISP(demorgan4): size 168, free generators at [19, 58]\n"
        code, out, err = run(capsys, "free", "7", "demorgan4")
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.endswith("stage 'structure product', budget 5000, required 16384\n")
        code, out, _ = run(capsys, "free", "2", "demorgan4", "--cap", "16")
        assert code == EXIT_OK and "size 168," in out
        code, out, err = run(capsys, "free", "2", "demorgan4", "--cap", "15")
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.endswith("stage 'structure product', budget 15, required 16\n")

    def test_raised_cap_stops_before_the_points_are_listed(self, capsys):
        # M~^16 over kleene3: 3^16 points per sort, each a 16-entry tuple
        code, out, err = run(capsys, "free", "16", "kleene3", "--cap", str(10**20))
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err == (
            "unknown: product structure needs 688747536 point entries, budget is 10000000; "
            "stage 'structure product', budget 10000000, required 688747536\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "free", "2", "kleene3", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "free_generators": [14, 32], "generators": ["kleene3"], "rank": 2, "schema": 1, "size": 84,
        }

    def test_rank_over_a_one_element_generator(self, capsys, tmp_path):
        path = tmp_path / "one.alg"
        path.write_text(ONE_ELEMENT.format(arity=1), encoding="utf-8")
        code, out, _ = run(capsys, "free", "3", str(path))
        assert code == EXIT_OK
        assert out == "free algebra on 3 generator(s) over ISP(big): size 1, free generators at [0, 0, 0]\n"
        code, out, err = run(capsys, "free", "1000000000", str(path))
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err == (
            "unknown: free algebra on 1000000000 generators exceeds the cap 5000; "
            "stage 'free algebra', budget 5000, required 1000000000\n"
        )


class TestRevengAndDot:
    @pytest.mark.parametrize("source", ["kleene3", "demorgan4", "heyting_chain:3", "mv_chain:2"])
    def test_reveng_accepts_classifiable_ids(self, capsys, source):
        code, out, _ = run(capsys, "reveng-check", source)
        assert code == EXIT_OK and "isomorphic to the prime-filter poset: yes" in out

    def test_dot_output(self, capsys, tmp_path):
        out_path = tmp_path / "dm.dot"
        code, _, _ = run(capsys, "export-dot", "demorgan4", "--out", str(out_path))
        assert code == EXIT_OK
        dot = out_path.read_text()
        assert dot.startswith("digraph") and "n0" in dot

    def test_dot_deterministic(self, capsys):
        _, out1, _ = run(capsys, "export-dot", "pseudo_b:2")
        _, out2, _ = run(capsys, "export-dot", "pseudo_b:2")
        assert out1 == out2

    def test_out_flag_writes_report(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run(capsys, "classify", "bool2", "--json", "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert json.loads(path.read_text())["preserves_coproducts"] == "yes"

    def test_dot_reveng_variant(self, capsys):
        code, out, _ = run(capsys, "export-dot", "kleene3", "--reveng")
        assert code == EXIT_OK and "->" in out

    @pytest.mark.parametrize(
        "argv", [("export-dot", "kleene3", "--omega", "zzz"), ("export-dot", "demorgan4", "kleene3")]
    )
    def test_dot_inputs_read_only_with_reveng_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and "--reveng" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("reveng-check", "demorgan4", "kleene3"),
            ("export-dot", "demorgan4", "kleene3", "--reveng"),
        ],
    )
    def test_reveng_enumerates_each_hom_set_once(self, monkeypatch, capsys, fresh_ids, argv):
        # the natural duals read the hom-sets the alter ego's sorts keep
        pairs = count_hom_enumerations(monkeypatch)
        code, _, _ = run(capsys, *argv)
        assert code == EXIT_OK
        ids = argv[1:3]
        assert pairs == list(itertools.product(ids, ids))


class TestTable1Command:
    def test_all_match_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["all_match"] is True
        assert all(row["match"] for row in doc["results"])

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "table1", "--json")
        _, out2, _ = run(capsys, "table1", "--json")
        assert out1 == out2


class TestInternalErrors:
    """A bug exits 3, never 1 ("unknown") or 2 (bad input), with no traceback."""

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), InternalError("boom")])
    def test_exception_in_command(self, monkeypatch, capsys, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(latcop.cli, "flowchart_classify", broken)
        code, _, err = run(capsys, "classify", "kleene3")
        assert code == EXIT_INTERNAL
        assert err.startswith("internal error:") and "boom" in err
        assert "Traceback" not in err

    def test_failed_self_check(self, monkeypatch, capsys):
        # a reconstruction that is not isomorphic to the Priestley dual is a
        # bug: with no prime filters listed, u^-1(w) names none of them
        monkeypatch.setattr(latcop.duality, "prime_filters", lambda lattice: [])
        code, out, err = run(capsys, "reveng-check", "kleene3")
        assert code == EXIT_INTERNAL and out == ""
        assert err.startswith("internal error:") and "Traceback" not in err
        assert "reconstruction quotient is not isomorphic to the Priestley dual" in err

    def test_table1_mismatch(self, monkeypatch, capsys):
        suite = latcop.catalog.table1_suite()
        entry, (e, s) = suite[0]
        monkeypatch.setattr(
            latcop.catalog, "table1_suite", lambda: [(entry, (not e, s))] + suite[1:]
        )
        code, out, _ = run(capsys, "table1")
        assert code == EXIT_INTERNAL
        assert "MISMATCH" in out


class TestCommandMatrix:
    @pytest.mark.parametrize(
        "source", ["bool2", "kleene3", "demorgan4", "heyting_chain:3",
                   "mv_chain:2", "pseudo_b:1", "moisil_M:3", "pre_moisil_L0:2"]
    )
    def test_every_classifiable_id_works_everywhere(self, capsys, source):
        for argv in (
            ["classify", source],
            ["duality", source],
            ["reveng-check", source],
            ["export-dot", source],
        ):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_OK, (argv, err)


class TestCrossProcessDeterminism:
    def test_fresh_processes_agree_byte_for_byte(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "latcop", "classify", "kleene3", "--json"]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and b'"schema": 1' in runs[0]


class TestCatalogBudget:
    def test_oversized_id_is_unknown(self, capsys):
        code, out, err = run(capsys, "classify", "mv_chain:99999")
        assert code == EXIT_UNKNOWN and out == ""
        assert err == (
            "unknown: mv_chain tables need at least 10000100001 entries, budget is 10000000; "
            "stage 'catalog tables', budget 10000000, required 10000100001\n"
        )

    def test_oversized_export_is_unknown(self, capsys):
        code, out, err = run(capsys, "export-alg", "pseudo_b:99999999")
        assert code == EXIT_UNKNOWN and out == ""
        assert err == (
            "unknown: pseudo_b tables need at least 562950037307397 entries, budget is 10000000; "
            "stage 'catalog tables', budget 10000000, required 562950037307397\n"
        )

    def test_parameter_past_the_digit_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "export-alg", "pseudo_b:" + "4" * 4401)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: catalog id parameter of 4401 digits is too long\n"


class TestDigitLimit:
    """An integer token past the 4,300 digits Python converts is bad input
    (exit 2) wherever outside text is read, never an internal error."""

    DIGITS = "9" * 5000

    @pytest.mark.parametrize("old, new, line", [
        ("size 4", "size {}", 1),
        ("op neg 1", "op neg {}", 5),
        ("table neg = 3 1 2 0", "table neg = 3 {} 2 0", 10),
        ("reduct meet=(meet x0 x1)", "reduct meet=(meet x0 x{})", 13),
        ("carrier {1 3}", "carrier {{1 {}}}", 14),
    ], ids=["size", "arity", "table value", "term variable", "carrier"])
    def test_alg_token(self, capsys, tmp_path, old, new, line):
        text = (DATA / "demorgan4.alg").read_text(encoding="utf-8")
        assert old in text.splitlines()[line - 1]
        path = tmp_path / "long.alg"
        path.write_text(text.replace(old, new.format(self.DIGITS)), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: line {line}, column 1: number of 5000 digits is too long\n"

    def test_omega_index(self, capsys):
        code, out, err = run(capsys, "duality", "kleene3", "--omega", self.DIGITS)
        assert (code, out, err) == (EXIT_INPUT, "", "error: number of 5000 digits is too long\n")

    def test_large_size_is_reported_not_printed(self, capsys, tmp_path):
        # a size of 3,000 digits converts, but its square does not print
        text = (DATA / "demorgan4.alg").read_text(encoding="utf-8").replace("elements 0 a b 1\n", "")
        path = tmp_path / "large.alg"
        path.write_text(text.replace("size 4", "size " + "9" * 3000), encoding="utf-8")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: line 7, column 1: table for 'meet' has length 16, expected {'9' * 3000}**2\n"


class TestTermNesting:
    """Reduct terms nest at most ``algfile.MAX_TERM_DEPTH`` parentheses deep;
    a deeper term is bad input, reported at its line."""

    @staticmethod
    def write(tmp_path, meet):
        text = (DATA / "demorgan4.alg").read_text(encoding="utf-8")
        path = tmp_path / "deep.alg"
        path.write_text(text.replace("meet=(meet x0 x1)", "meet=" + meet), encoding="utf-8")
        return str(path)

    def test_200_levels_answer(self, capsys, tmp_path):
        # neg is an involution on demorgan4, so the term is the meet
        path = self.write(tmp_path, "(neg " * 200 + "(meet x0 x1)" + ")" * 200)
        code, out, err = run(capsys, "classify", path)
        assert (code, err) == (EXIT_OK, "")
        assert "E: yes, S: yes" in out.splitlines()

    @pytest.mark.parametrize("meet", [
        "(neg " * 400 + "(meet x0 x1)" + ")" * 400,
        "(neg " * 5000,
    ], ids=["400 levels", "5000 unclosed"])
    def test_deeper_terms_exit_2(self, capsys, tmp_path, meet):
        code, out, err = run(capsys, "classify", self.write(tmp_path, meet))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: line 13, column 1: term nested more than 216 parentheses deep\n"


class TestBudgetFigures:
    """Counts past a cap are compared without forming numbers far past it,
    and printed as lower bounds past the digits Python prints."""

    @pytest.mark.parametrize("n", ["9013", "1000000000"])
    def test_free_rank(self, capsys, n):
        # 3^9013 has 4,301 digits; no list of n factors is built either
        start = time.perf_counter()
        code, out, err = run(capsys, "free", n, "kleene3")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.startswith("unknown: product structure needs 9999")
        assert err.endswith(f"stage 'structure product', budget 5000, required {'9' * 4300}\n")

    def test_exact_figure(self, capsys):
        code, _, err = run(capsys, "free", "12", "kleene3")
        assert code == EXIT_UNKNOWN
        assert err == (
            "unknown: product structure needs 531441 points in sort 0, cap is 5000; "
            "stage 'structure product', budget 5000, required 531441\n"
        )

    def test_coproduct_of_15000_operands(self, capsys):
        code, out, err = run(capsys, "coproduct", *["demorgan4"] * 15000)
        assert (code, out) == (EXIT_UNKNOWN, "")
        assert err.startswith("unknown: product structure needs 9999")
        assert err.endswith(f"stage 'structure product', budget 5000, required {'9' * 4300}\n")


class TestExportAlg:
    def test_round_trip_through_cli(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-alg", "mv_chain:2")
        assert code == EXIT_OK
        path = tmp_path / "mv.alg"
        path.write_text(out)
        code2, out2, _ = run(capsys, "classify", str(path))
        assert code2 == EXIT_OK
        assert out2.rstrip().splitlines()[-1] == "E: no, S: yes"

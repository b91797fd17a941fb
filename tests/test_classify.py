"""The flowchart and the condition-(C) decision procedure."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    check_condition_C,
    count_hom_enumerations,
    fresh_entry,
    is_rel_subdirectly_irreducible,
    least_injective_hom,
    one_element,
    relation_sizes,
    report_for,
    scan_single_generator,
    simplify_by_enumeration,
    subalgebras_up_to_iso,
)
from latcop import algebra as algebra_module
from latcop import classify as classify_module
from latcop.algebra import (
    FiniteAlgebra,
    Signature,
    direct_product,
    in_isp,
    induced_subalgebra,
    isomorphic,
    subuniverses,
)
from latcop.catalog import _CONSTRUCTORS, make, make_id, table1_suite
from latcop.classify import (
    find_single_generator,
    flowchart_classify,
    simplify_generators,
)
from latcop.duality import coproduct
from latcop.errors import CapExceeded, LatcopError
from latcop.piggyback import _relation_search, build_alter_ego, carrier_from_filter, carriers_of, leq_mask

DM = make("demorgan4")
K3 = make("kleene3")
C3 = make("heyting_chain", 3)


class TestSimplifyGenerators:
    def test_kleene_subsumed_by_demorgan(self):
        out = simplify_generators([DM.algebra, K3.algebra])
        assert len(out) == 1
        assert isomorphic(out[0], DM.algebra) is not None

    def test_kleene_alone(self):
        out = simplify_generators([K3.algebra])
        assert len(out) == 1 and isomorphic(out[0], K3.algebra) is not None

    def test_square_reduces_to_factor(self):
        sq = direct_product([K3.algebra, K3.algebra])
        out = simplify_generators([sq])
        assert len(out) == 1
        assert isomorphic(out[0], K3.algebra) is not None

    def test_same_quasivariety(self):
        for gens in ([DM.algebra, K3.algebra], [C3.algebra]):
            out = simplify_generators(gens)
            assert all(in_isp(m, out) for m in gens)
            assert all(in_isp(s, gens) for s in out)

    def test_empty_input_rejected(self):
        with pytest.raises(LatcopError):
            simplify_generators([])

    def test_cap(self, monkeypatch):
        # the size proxy is checked on every generator before any RSI test
        big = make("pre_moisil_M0", 4).algebra  # 16 elements
        monkeypatch.setattr(algebra_module, "hom_enumerate", None)
        with pytest.raises(CapExceeded) as exc:
            simplify_generators([big])
        assert str(exc.value) == "subalgebra enumeration needs generator size <= 12, got 16"
        assert exc.value.required == 16

    def test_small_cap_names_stage_and_budget(self):
        with pytest.raises(CapExceeded) as exc:
            simplify_generators([make("demorgan4").algebra], size_cap=3)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("subalgebra enumeration", 3, 4)
        assert str(exc.value) == "subalgebra enumeration needs generator size <= 3, got 4"


def _small_catalog(max_size: int) -> list[FiniteAlgebra]:
    """Every catalog algebra with 2 to ``max_size`` elements; each family
    grows with its parameter."""
    out = []
    for key, (_, nparams) in sorted(_CONSTRUCTORS.items()):
        for params in [()] if nparams == 0 else [(n,) for n in range(max_size + 1)]:
            try:
                alg = make(key, *params).algebra
            except LatcopError:
                continue
            if alg.size > max_size:
                break
            out.append(alg)
    return [a for a in out if a.size >= 2]


_SMALL = _small_catalog(8)
_SAME_SIGNATURE_PAIRS = [
    (a, b)
    for a, b in itertools.combinations_with_replacement(_SMALL, 2)
    if a.signature == b.signature
]
_TRIPLES = [
    ("kleene3", "demorgan4", "kleene3"),
    ("heyting_chain:2", "heyting_chain:3", "heyting_chain:4"),
    ("heyting_chain:5", "heyting_chain:3", "heyting_chain:5"),
    ("mv_chain:2", "mv_chain:3", "mv_chain:6"),
    ("mv_chain:4", "mv_chain:1", "mv_chain:3"),
    ("pseudo_b:0", "pseudo_b:1", "pseudo_b:2"),
]


@st.composite
def small_generating_sets(draw):
    """One to three algebras of 1-4 elements sharing a unary, a binary and
    an optional nullary operation."""
    symbols = (("f", 1), ("g", 2)) + ((("c", 0),) if draw(st.booleans()) else ())
    sig = Signature(symbols)
    gens = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=4))
        gens.append(FiniteAlgebra(f"a{i}", n, sig, tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for _, k in symbols
        )))
    return gens


class TestSimplifyAgainstEnumeration:
    """The frontier walk gives the list that testing every subalgebra up to
    isomorphism gives: the same names, tables and order."""

    @staticmethod
    def check(gens):
        got, want = simplify_generators(gens), simplify_by_enumeration(gens)
        assert [(s.name, s.size, s.tables) for s in got] == [(s.name, s.size, s.tables) for s in want]

    @pytest.mark.parametrize("alg", [a for a in _SMALL if a.size <= 7], ids=lambda a: a.name)
    def test_catalog_algebra(self, alg):
        self.check([alg])

    @pytest.mark.parametrize("pair", _SAME_SIGNATURE_PAIRS, ids=lambda p: f"{p[0].name},{p[1].name}")
    def test_same_signature_pair(self, pair):
        self.check(list(pair))
        self.check(list(reversed(pair)))

    @pytest.mark.parametrize("ids", _TRIPLES, ids=",".join)
    def test_triple(self, ids):
        self.check([make_id(i).algebra for i in ids])

    @pytest.mark.parametrize(
        "key",
        ["kleene3xkleene3", "heyting_chain:3xheyting_chain:3", "moisil_L:3xmoisil_L:3", "bool2xbool2"],
    )
    def test_non_rsi_generator(self, key):
        gens = _single_generator_input(key)
        assert not is_rel_subdirectly_irreducible(gens[0], gens)
        self.check(gens)

    @pytest.mark.parametrize("key", ["kleene3", "mv_chain:2xmv_chain:3", "demorgan4xkleene3"])
    def test_rsi_generator_kept_as_given(self, key):
        gens = _single_generator_input(key)
        assert simplify_generators(gens)[0] is gens[0]
        self.check(gens)

    @settings(max_examples=200, deadline=None)
    @given(small_generating_sets())
    def test_random_algebras(self, gens):
        self.check(gens)


class TestSubalgebrasUpToIso:
    @pytest.mark.parametrize(
        "ids",
        [("demorgan4", "kleene3"), ("mv_chain:4",), ("heyting_chain:4",), ("pseudo_b:2",)],
    )
    def test_matches_brute_force(self, ids):
        # the first subalgebra of each isomorphism type, in candidate order,
        # with isomorphism decided from the brute-force homomorphism list
        gens = [make_id(i).algebra for i in ids]
        candidates = sorted(
            (len(s), mi, tuple(sorted(s)))
            for mi, m in enumerate(gens)
            for s in subuniverses(m)
            if len(s) > 1
        )
        expected = []
        for _, mi, elems in candidates:
            sub, _ = induced_subalgebra(gens[mi], elems)
            if all(s.size != sub.size or least_injective_hom(sub, s) is None for s in expected):
                expected.append(sub)
        assert [(s.name, s.tables) for s in subalgebras_up_to_iso(gens)] == [
            (s.name, s.tables) for s in expected
        ]


class TestFindSingleGenerator:
    def test_demorgan(self):
        m0 = find_single_generator([DM.algebra])
        assert m0 is not None and isomorphic(m0, DM.algebra) is not None

    def test_kleene(self):
        m0 = find_single_generator([K3.algebra])
        assert isomorphic(m0, K3.algebra) is not None

    def test_pseudo_b2(self):
        b2 = make("pseudo_b", 2).algebra
        m0 = find_single_generator([b2])
        assert isomorphic(m0, b2) is not None

    def test_two_mv_chains_not_singly_generated(self):
        # no homomorphisms between the chains, so no embedding property
        l2 = make("mv_chain", 2).algebra
        l3 = make("mv_chain", 3).algebra
        assert find_single_generator(simplify_generators([l2, l3])) is None

    def test_multi_chain_mv_classifies_E_fail(self):
        l2 = make("mv_chain", 2).algebra
        l3 = make("mv_chain", 3).algebra
        rep = flowchart_classify([l2, l3], make("mv_chain", 2).spec)
        assert rep.verdict_E is False
        assert rep.verdict_S is True  # both chains are prime powers


def _cycles_and_fixed_point(name: str, cycle: int) -> FiniteAlgebra:
    """A mono-unary algebra: one cycle of the given length and one fixed
    point.  Two of them with coprime cycle lengths map into each other only
    through the fixed point, so neither embeds in the other."""
    f = tuple((x + 1) % cycle for x in range(cycle)) + (cycle,)
    return FiniteAlgebra(name, cycle + 1, Signature((("f", 1),)), (f,))


def _single_generator_input(key: str) -> list[FiniteAlgebra]:
    if key == "cycles2,3":
        return [_cycles_and_fixed_point("c2", 2), _cycles_and_fixed_point("c3", 3)]
    return [
        direct_product([make_id(i).algebra for i in part.split("x")])
        if "x" in part else make_id(part).algebra
        for part in key.split(",")
    ]


class TestSingleGeneratorAgainstScan:
    """``find_single_generator`` reads the answer off the simplified set;
    the oracle scans every subalgebra of the input, smallest first."""

    @pytest.mark.parametrize(
        "key",
        [
            "kleene3",
            "demorgan4",
            "demorgan4,kleene3",
            "kleene3xkleene3",
            "heyting_chain:3xheyting_chain:3",
            "mv_chain:2xmv_chain:3",
            "mv_chain:2,mv_chain:3",
            "heyting_chain:3,heyting_chain:4",
            "pseudo_b:2",
            "mv_chain:2,mv_chain:4",
            "moisil_L:3",
            "mv_chain:1xmv_chain:2",
            "mv_chain:2,mv_chain:3,mv_chain:6",
            "cycles2,3",
        ],
    )
    def test_matches_subalgebra_scan(self, key):
        gens = _single_generator_input(key)
        got, want = find_single_generator(gens), scan_single_generator(gens)
        assert (got is None) == (want is None)
        if want is not None:
            assert (got.name, got.size, got.tables) == (want.name, want.size, want.tables)

    def test_product_of_simplified_set(self):
        # c2 and c3 are RSI and do not embed in each other, but each embeds
        # in c2 x c3 through the identity paired with the collapse onto the
        # other's fixed point
        gens = _single_generator_input("cycles2,3")
        assert [s.name for s in simplify_generators(gens)] == ["c2", "c3"]
        assert find_single_generator(gens).name == "c2xc3"

    def test_a_no_builds_no_product(self, monkeypatch):
        # mv_chain(2) and mv_chain(3) have no homomorphism into each other,
        # so the pairs answer no and the product is never built
        def refuse(*args, **kwargs):
            raise AssertionError("direct_product called")

        monkeypatch.setattr(classify_module, "direct_product", refuse)
        gens = _single_generator_input("mv_chain:2,mv_chain:3")
        assert find_single_generator(gens) is None
        rep = flowchart_classify(gens, make("mv_chain", 2).spec)
        assert (rep.verdict_E, rep.verdict_S) == (False, True)

    def test_empty_and_trivial_inputs(self):
        one = one_element(K3.algebra.signature)
        assert find_single_generator([]) is None
        assert find_single_generator([one]) is None

    @pytest.mark.parametrize(
        "ids",
        [("kleene3",), ("demorgan4", "kleene3"), ("mv_chain:2", "mv_chain:3"), ("kleene3xkleene3",)],
    )
    def test_lists_subuniverses_of_non_rsi(self, ids, monkeypatch):
        # an RSI generator is tested and kept whole; only a generator that is
        # not RSI has its subuniverses listed, once
        calls = []
        real = algebra_module.subuniverses

        def counted(algebra):
            calls.append(algebra.name)
            return real(algebra)

        for module in (algebra_module, classify_module):
            monkeypatch.setattr(module, "subuniverses", counted)
        gens = _single_generator_input(",".join(ids))
        non_rsi = {m.name for m in gens if not is_rel_subdirectly_irreducible(m, gens)}
        assert (ids == ("kleene3xkleene3",)) == bool(non_rsi)
        rep = flowchart_classify(gens, make_id(ids[0].split("x")[0]).spec)
        assert rep.unknown is None
        assert set(calls) <= non_rsi and len(calls) == len(set(calls))


class TestFlowchart:
    @pytest.mark.parametrize(
        "key,params,expected",
        [
            ("demorgan4", (), (True, True)),
            ("kleene3", (), (False, True)),
            ("heyting_chain", (3,), (True, False)),
        ],
    )
    def test_headline_examples(self, key, params, expected):
        rep = report_for(key, *params)
        assert (rep.verdict_E, rep.verdict_S) == expected
        assert rep.preserves_coproducts == (expected[0] and expected[1])

    @pytest.mark.parametrize("cids", [["kleene3"], ["mv_chain(2)", "mv_chain(3)"]])
    def test_enumerates_each_hom_set_once(self, monkeypatch, cids):
        # the RSI tests, both membership checks, the carrier search and the
        # alter ego read one enumeration per ordered pair of sorts
        entries = [fresh_entry(c) for c in cids]
        pairs = count_hom_enumerations(monkeypatch)
        rep = flowchart_classify([e.algebra for e in entries], entries[0].spec)
        names = [m.name for m in rep.ego.sorts]
        assert len(names) == len(cids)
        assert pairs == list(itertools.product(names, names))

    @pytest.mark.parametrize("key", ["kleene3xkleene3", "heyting_chain:3xheyting_chain:3"])
    def test_non_rsi_generator_enumerates_each_hom_set_once(self, monkeypatch, key):
        gens = _single_generator_input(key)
        pairs = count_hom_enumerations(monkeypatch)
        rep = flowchart_classify(gens, make_id(key.split("x")[0]).spec)
        assert rep.unknown is None and rep.single_generator is not None
        assert len(pairs) == len(set(pairs))

    def test_a_second_run_enumerates_nothing(self, monkeypatch):
        # the hom-sets stay with the algebras, so classifying them again,
        # or taking their coproduct, finds every one kept
        gens = [fresh_entry(c).algebra for c in ("demorgan4", "kleene3")]
        first = flowchart_classify(gens, DM.spec), coproduct(gens, DM.spec, None, gens)
        pairs = count_hom_enumerations(monkeypatch)
        again = flowchart_classify(gens, DM.spec), coproduct(gens, DM.spec, None, gens)
        assert again[0].to_json() == first[0].to_json()
        assert again[1].algebra == first[1].algebra
        assert pairs == []

    def test_budget_on_hom_enumeration(self, monkeypatch):
        # End(heyting_chain(8)) has 64 maps: past a budget of 10 the run is
        # unknown and names the stage; the stopped hom-set is not kept, so
        # under the real budget the same algebra answers
        entry = fresh_entry("heyting_chain(8)")
        gens = [entry.algebra]
        monkeypatch.setattr(algebra_module, "HOM_MAP_BUDGET", 10)
        rep = flowchart_classify(gens, entry.spec)
        assert rep.unknown is not None and rep.unknown.endswith(
            "stage 'hom enumeration', budget 10, required 11"
        )
        assert (rep.stopped.stage, rep.stopped.budget, rep.stopped.required) == ("hom enumeration", 10, 11)
        assert gens[0]._homs == {}
        monkeypatch.undo()
        rep = flowchart_classify(gens, entry.spec)
        assert (rep.unknown, rep.verdict_E, rep.verdict_S) == (None, True, False)
        assert len(gens[0]._homs[gens[0]]) == 64

    def test_report_fields(self):
        rep = report_for("kleene3")
        assert rep.single_generator is not None
        assert len(rep.omega) == 2
        assert relation_sizes(rep.listing) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
        assert rep.route[0][1] == "yes" and rep.route[1][1] == "no"
        assert rep.unknown is None
        text = rep.to_text()
        assert text.rstrip().endswith("E: no, S: yes")
        doc = rep.to_json_dict()
        assert doc["schema"] == 1 and doc["E"] == "no" and doc["S"] == "yes"

    def test_multi_generator_input(self):
        rep = flowchart_classify([DM.algebra, K3.algebra], DM.spec)
        assert (rep.verdict_E, rep.verdict_S) == (True, True)

    def test_unknown_on_cap(self):
        big = make("pre_moisil_M0", 4).algebra
        rep = flowchart_classify([big], DM.spec)
        assert rep.unknown == (
            "subalgebra enumeration needs generator size <= 12, got 16; "
            "stage 'subalgebra enumeration', budget 12, required 16"
        )
        assert rep.preserves_coproducts is None

    def test_trivial_class(self):
        one = one_element(K3.algebra.signature)
        rep = flowchart_classify([one], K3.spec)
        assert rep.verdict_E and rep.verdict_S

    def test_moisil_index_two_reports_computed_verdict(self):
        # the published table and the computed single-carrier answer disagree
        # at index 2; the catalog carries the computed verdict and a note
        for key in ("moisil_L", "moisil_M"):
            entry = make(key, 2)
            rep = flowchart_classify([entry.algebra], entry.spec)
            assert (rep.verdict_E, rep.verdict_S) == (True, True)
            assert entry.expected == (True, True)
        assert "computed verdict" in make("moisil_L", 2).notes

    def test_diagonal_keeps_every_root_class_nonzero(self):
        # R(w, w) holds the diagonal, a subuniverse inside (w, w)^-1(<=), so
        # its root class is never 0 and the S verdict's "<= 1" is the single
        # carrier's "= 1": 95 carriers of the Table 1 and ladder generators
        ids = [e.key for e, _ in table1_suite()] + [
            "mv_chain(7)", "mv_chain(8)", "moisil_L(7)", "moisil_L(8)", "heyting_chain(8)",
            "pre_moisil_L0(4)", "pre_moisil_M0(3)", "pseudo_b(4)",
        ]
        count = 0
        for entry in map(make_id, ids):
            m = entry.algebra
            root_class = _relation_search(direct_product([m, m]), m.size).root_class
            for w in carriers_of(m, entry.spec):
                assert root_class(leq_mask(w, w)) >= 1, (entry.key, w.label())
                count += 1
        assert count == 95

    def test_pseudocomplemented_carrier_is_recorded(self):
        # the separating carrier is discovered, not documented: it is the
        # filter generated by the adjoined top, and the report records it
        rep = report_for("pseudo_b", 2)
        assert [w.elements for w in rep.omega] == [frozenset({4})]
        assert rep.to_json_dict()["omega"] == ["{T}"]


class TestSVertictTieBreakIndependence:
    def test_demorgan_alternative_carrier(self):
        # the two symmetric single carriers give the same S verdict
        for filt in ({1, 3}, {2, 3}):
            w = carrier_from_filter(DM.algebra, DM.spec, filt)
            ego = build_alter_ego([DM.algebra], DM.spec, [w])
            assert all(v == 1 for v in relation_sizes(ego).values())

    def test_goedel_any_carrier_choice(self):
        # C_3 has one valid singleton; check S fails for it and for full omega
        w = carrier_from_filter(C3.algebra, C3.spec, {2})
        ego1 = build_alter_ego([C3.algebra], C3.spec, [w])
        assert max(relation_sizes(ego1).values()) > 1
        ego2 = build_alter_ego([C3.algebra], C3.spec, carriers_of(C3.algebra, C3.spec))
        assert max(relation_sizes(ego2).values()) > 1


class TestEImpliesFreeProducts:
    @pytest.mark.parametrize(
        "key,params",
        [("demorgan4", ()), ("heyting_chain", (3,)), ("pseudo_b", (2,)),
         ("pre_moisil_L0", (2,)), ("mv_chain", (1,))],
    )
    def test_single_generator_exists_when_E(self, key, params):
        rep = report_for(key, *params)
        assert rep.verdict_E
        assert rep.single_generator is not None


class TestConditionC:
    def test_demorgan_all_true(self):
        w = carrier_from_filter(DM.algebra, DM.spec, {1, 3})
        assert check_condition_C(DM.algebra, w, DM.spec) == (True, True, True)

    def test_kleene_sep_fails(self):
        w = carrier_from_filter(K3.algebra, K3.spec, {1, 2})
        assert check_condition_C(K3.algebra, w, K3.spec) == (True, False, True)

    def test_goedel_top_fails(self):
        w = carrier_from_filter(C3.algebra, C3.spec, {2})
        assert check_condition_C(C3.algebra, w, C3.spec) == (True, True, False)

    @pytest.mark.parametrize(
        "key,params",
        [
            ("demorgan4", ()),
            ("kleene3", ()),
            ("heyting_chain", (3,)),
            ("pseudo_b", (1,)),
            ("pseudo_b", (2,)),
            ("mv_chain", (2,)),
            ("pre_moisil_L0", (2,)),
            ("moisil_M", (3,)),
            ("pre_moisil_M0", (2,)),
        ],
    )
    def test_decidability_harness(self, key, params):
        # preservation holds iff some (M, omega) pair passes all three checks
        entry = make(key, *params)
        rep = report_for(key, *params)
        found = False
        for m in subalgebras_up_to_iso([entry.algebra]):
            if not in_isp(entry.algebra, [m]):
                continue
            for w in carriers_of(m, entry.spec):
                if check_condition_C(m, w, entry.spec, ambient=[entry.algebra]) == (
                    True, True, True,
                ):
                    found = True
        assert found == rep.preserves_coproducts

"""Hom-functors, coproducts, reconstruction, iota, and the reflector."""

import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    compose,
    count_hom_enumerations,
    e_search_by_reference,
    ego_for,
    evaluation_check,
    fresh_entry,
    generating_set,
    iota_check,
    lambda_map,
    lift_by_pairs,
    median_chain,
    mediating_map_counts,
    morphisms_by_maps,
    one_element,
    pairs_of,
    poset_isomorphic,
    product_by_pairs,
    reconstruction_order_poset,
    reconstruction_rows_by_triples,
    reflector,
    report_for,
    universal_by_closure,
)
from conftest import chain as chain_poset
from latcop import algebra as algebra_module
from latcop import duality as duality_module
from latcop.algebra import (
    FIGURE_CEILING,
    Homomorphism,
    _extends_to_hom,
    direct_product,
    free_algebra,
    hom_enumerate,
    hom_set,
    induced_subalgebra,
    isomorphic,
    subuniverse_closure,
)
from latcop.catalog import make, make_id, table1_suite
from latcop.distlat import d_reduct, poset_from_pairs, prime_filters, priestley_dual
from latcop.duality import (
    DEFAULT_POINTS_CAP,
    DEFAULT_VISIT_CAP,
    MultisortedStructure,
    _check_universal_property,
    _prescribed,
    coproduct,
    e_functor,
    natural_dual,
    reveng_priestley,
    structure_product,
)
from latcop.errors import CapExceeded, InternalError, MembershipError
from latcop.piggyback import build_alter_ego, carrier_from_filter

DM = make("demorgan4")
K3 = make("kleene3")
C3 = make("heyting_chain", 3)

# one-sort egos of sizes 2 and 3 (the latter with two carriers), and a
# two-sort ego on sorts of sizes 3 and 4, so a row sized or shifted by
# the wrong sort shows
EGOS = [
    ego_for("bool2"),
    ego_for("kleene3"),
    build_alter_ego(
        [K3.algebra, DM.algebra], DM.spec,
        [carrier_from_filter(K3.algebra, K3.spec, {2}), carrier_from_filter(DM.algebra, DM.spec, {1, 3})],
    ),
]


@st.composite
def structures(draw, ego, most, row_bits=None):
    """A structure over ``ego`` with 1..most points per sort, random
    relation rows of at most ``row_bits`` bits (any number when None), and
    random operation images or, mostly, the identity for an operation
    within one sort.  E(X) has more than its constant maps mostly when
    the rows hold one bit or none."""
    counts = [draw(st.integers(1, most)) for _ in ego.sorts]
    relations = tuple(
        tuple(
            sum(1 << j for j in draw(st.sets(st.integers(0, counts[rel.sort2] - 1), max_size=row_bits)))
            for _ in range(counts[rel.sort1])
        )
        for rel in ego.relations
    )
    operations = []
    for g in ego.operations:
        s, t = ego.sort_index(g.source), ego.sort_index(g.target)
        if s == t and draw(st.integers(0, 3)):
            operations.append(tuple(range(counts[s])))
        else:
            operations.append(tuple(draw(st.integers(0, counts[t] - 1)) for _ in range(counts[s])))
    return MultisortedStructure(ego, tuple(tuple(range(c)) for c in counts), relations, tuple(operations))


def factors(ego):
    """Up to three structures over ``ego``, at most 4 points per sort (3
    with two sorts), paired with the ego for the empty product."""
    return st.lists(structures(ego, 4 if len(ego.sorts) == 1 else 3), max_size=3).map(lambda xs: (ego, xs))


class TestNaturalDual:
    def test_demorgan_two_points(self):
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        assert len(x.points[0]) == 2
        # the lifted relation relates each endomorphism to itself only
        assert x.relations[0] == (0b01, 0b10)

    def test_trivial_algebra_has_no_points(self):
        one = one_element(DM.algebra.signature)
        x = natural_dual(one, ego_for("demorgan4"))
        assert len(x.points[0]) == 0

    def test_free_dual_has_generator_count_points(self):
        f1 = free_algebra([K3.algebra], 1)
        x = natural_dual(f1, ego_for("kleene3"))
        assert len(x.points[0]) == 3

    def test_membership_checked(self):
        with pytest.raises(MembershipError):
            natural_dual(DM.algebra, ego_for("kleene3"))

    @pytest.mark.parametrize("check", [natural_dual, reveng_priestley, evaluation_check, lambda_map])
    def test_checks_read_the_kept_hom_sets(self, monkeypatch, check):
        # copies of demorgan4 with planted hom-sets, read as they stand:
        # the real lists give the real answer with enumeration switched
        # off, and empty lists leave no points to separate with
        gens = [DM.algebra, K3.algebra]
        ego = build_alter_ego(gens, DM.spec)
        want = check(DM.algebra, ego)
        real, emptied = dataclasses.replace(DM.algebra), dataclasses.replace(DM.algebra)
        for m in gens:
            real._homs[m], emptied._homs[m] = hom_set(DM.algebra, m), []
        monkeypatch.setattr(algebra_module, "hom_enumerate", None)
        assert check(real, ego) == want
        with pytest.raises(MembershipError):
            check(emptied, ego)


class TestStructureProduct:
    def test_unary_product_keeps_counts(self):
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        p = structure_product([x])
        assert len(p.points[0]) == 2

    def test_two_copies(self):
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        p = structure_product([x, x])
        assert len(p.points[0]) == 4

    def test_points_cap_names_stage_and_budget(self):
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        assert len(structure_product([x, x, x], points_cap=8).points[0]) == 8
        with pytest.raises(CapExceeded) as exc:
            structure_product([x, x, x], points_cap=7)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("structure product", 7, 8)
        assert str(exc.value) == "product structure needs 8 points in sort 0, cap is 7"

    def test_points_past_printing_are_a_lower_bound(self):
        # 2^15000 points have 4,516 digits, past the 4,300 Python prints
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        with pytest.raises(CapExceeded) as exc:
            structure_product([x] * 15000)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == (
            "structure product", DEFAULT_POINTS_CAP, FIGURE_CEILING
        )
        assert str(exc.value) == f"product structure needs {FIGURE_CEILING}+ points in sort 0, cap is 5000"

    def test_empty_family_one_point_per_sort(self):
        ego = ego_for("kleene3")
        p = structure_product([], ego=ego)
        assert [len(pts) for pts in p.points] == [1]
        assert all(rel == (0b1,) for rel in p.relations)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(EGOS).flatmap(factors))
    def test_matches_the_pairwise_lifting(self, case):
        ego, factors = case
        p = structure_product(factors, ego=ego)
        relations, operations = product_by_pairs(factors, ego)
        assert tuple(pairs_of(rows) for rows in p.relations) == relations
        assert p.operations == operations
        for rel, rows in zip(ego.relations, p.relations):
            assert len(rows) == len(p.points[rel.sort1])
            assert all(row >> len(p.points[rel.sort2]) == 0 for row in rows)


class TestEFunctor:
    def test_ego_as_structure_is_the_rank1_free_algebra(self):
        # the alter ego viewed as a one-sorted structure is the dual of the
        # free algebra on one generator; E recovers that algebra, and the
        # identity point is the evaluation at the free generator
        from latcop.duality import MultisortedStructure

        for key in ("demorgan4", "bool2"):
            ego = ego_for(key)
            m = ego.sorts[0]
            x = MultisortedStructure(
                ego,
                (tuple(range(m.size)),),
                tuple(r.rows for r in ego.relations),
                tuple(g.map for g in ego.operations),
            )
            res = e_functor(x)
            assert tuple(range(m.size)) in res.morphisms
            free1 = free_algebra([m], 1)
            assert res.algebra.size == free1.size
            assert isomorphic(res.algebra, free1) is not None

    def test_search_deeper_than_the_recursion_limit(self):
        # 1100 unconstrained points admit 2^1100 morphisms; the search is
        # 1100 levels deep, and the visit cap ends it
        from latcop.duality import MultisortedStructure
        from latcop.errors import CapExceeded

        ego = ego_for("bool2")
        n = 1100
        x = MultisortedStructure(
            ego,
            (tuple(range(n)),),
            tuple((0,) * n for _ in ego.relations),
            tuple(tuple(range(n)) for _ in ego.operations),
        )
        with pytest.raises(CapExceeded) as exc:
            e_functor(x, visit_cap=5000)
        assert exc.value.required == 5001

    def test_visit_cap_names_stage_and_budget(self):
        # demorgan4 + demorgan4's search visits 21 assignments (see below)
        x = natural_dual(DM.algebra, ego_for("demorgan4"))
        square = structure_product([x, x])
        assert e_functor(square, visit_cap=21).algebra.size == 16
        with pytest.raises(CapExceeded) as exc:
            e_functor(square, visit_cap=20)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("E-functor search", 20, 21)
        assert str(exc.value) == "E-functor enumeration exceeded 20 visited assignments"

    def test_search_order_and_visit_count(self):
        # E(X)'s elements, and with them the coproduct --json, come out in
        # lexicographic order; for demorgan4 + demorgan4 the search
        # propagates 21 nodes without conflict, so a cap of 20 is one short
        from latcop.errors import CapExceeded

        family = [DM.algebra, DM.algebra]
        res = coproduct([DM.algebra], DM.spec, None, family, visit_cap=21)
        morphisms = list(e_functor(res.structure).morphisms)
        assert len(morphisms) == 16 and morphisms == sorted(morphisms)
        with pytest.raises(CapExceeded) as exc:
            coproduct([DM.algebra], DM.spec, None, family, visit_cap=20)
        assert exc.value.required == 21

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(EGOS).flatmap(lambda ego: structures(ego, 6 // len(ego.sorts), row_bits=1)))
    def test_matches_every_map_of_the_points(self, x):
        # the sorts have nullary operations, so the constant maps keep E(X)
        # from being empty
        res = e_functor(x)
        assert all(len(v) == x.point_count for v in res.morphisms)
        assert list(res.morphisms) == morphisms_by_maps(x)

    def test_e_of_dual_recovers_size(self):
        for key, params in [("demorgan4", ()), ("kleene3", ()), ("heyting_chain", (3,))]:
            entry = make(key, *params)
            x = natural_dual(entry.algebra, ego_for(key, *params))
            assert e_functor(x).algebra.size == entry.algebra.size

    def test_empty_structure_gives_one_element(self):
        one = one_element(DM.algebra.signature)
        x = natural_dual(one, ego_for("demorgan4"))
        res = e_functor(x)
        assert res.algebra.size == 1

    def test_evaluations_are_morphisms(self):
        chk = evaluation_check(DM.algebra, ego_for("demorgan4"))
        assert chk.is_isomorphism


class TestEvaluationIso:
    @pytest.mark.parametrize(
        "key,params",
        [
            ("demorgan4", ()), ("kleene3", ()), ("bool2", ()),
            ("heyting_chain", (3,)), ("heyting_chain", (4,)),
            ("pseudo_b", (2,)), ("mv_chain", (2,)), ("mv_chain", (4,)),
            ("moisil_L", (3,)), ("moisil_M", (3,)),
            ("pre_moisil_L0", (2,)), ("pre_moisil_M0", (2,)),
        ],
    )
    def test_catalog(self, key, params):
        entry = make(key, *params)
        assert evaluation_check(entry.algebra, ego_for(key, *params)).is_isomorphism


class TestCoproduct:
    def test_demorgan_square(self):
        res = coproduct([DM.algebra], DM.spec, None, [DM.algebra, DM.algebra])
        assert res.algebra.size == 16
        assert all(eps.is_valid() and eps.is_injective for eps in res.injections)

    def test_unary_coproduct_is_identity_like(self):
        res = coproduct([DM.algebra], DM.spec, None, [DM.algebra])
        assert isomorphic(res.algebra, DM.algebra) is not None

    def test_empty_coproduct_is_initial(self):
        res = coproduct([K3.algebra], K3.spec, None, [])
        assert res.algebra.size == 2  # the free algebra on no generators

    def test_operand_outside_the_quasivariety(self):
        # checked once per operand, by its natural dual
        with pytest.raises(MembershipError):
            coproduct([K3.algebra], K3.spec, None, [DM.algebra])

    def test_kleene_selfcoproduct_collapses(self):
        res = coproduct([K3.algebra], K3.spec, None, [K3.algebra, K3.algebra])
        assert isomorphic(res.algebra, K3.algebra) is not None

    def test_free_coproduct_is_free(self):
        f1 = free_algebra([K3.algebra], 1)
        f2 = free_algebra([K3.algebra], 2)
        res = coproduct([K3.algebra], K3.spec, None, [f1, f1])
        assert isomorphic(res.algebra, f2) is not None
        assert all(eps.is_injective for eps in res.injections)

    def test_goedel_square(self):
        res = coproduct([C3.algebra], C3.spec, None, [C3.algebra, C3.algebra])
        assert res.algebra.size == 9
        # E holds in this class: injections embed (free products exist)
        assert all(eps.is_injective for eps in res.injections)

    def test_free_product_witness_where_E_holds(self):
        for key, params in [("pre_moisil_L0", (2,)), ("pseudo_b", (2,))]:
            entry = make(key, *params)
            res = coproduct(
                [entry.algebra], entry.spec, None, [entry.algebra, entry.algebra]
            )
            assert all(eps.is_injective for eps in res.injections)

    def test_visit_cap(self):
        from latcop.errors import CapExceeded

        f1 = free_algebra([K3.algebra], 1)
        with pytest.raises(CapExceeded):
            coproduct([K3.algebra], K3.spec, None, [f1, f1], visit_cap=5)

    @pytest.mark.parametrize(
        "family, generators",
        [
            (("demorgan4",) * 3, ("demorgan4",)),
            (("heyting_chain(3)",) * 3, ("heyting_chain(3)",)),
            (("demorgan4", "kleene3", "kleene3"), ("demorgan4", "kleene3")),
            (("demorgan4", "demorgan4", "kleene3"), ("demorgan4", "kleene3")),
        ],
    )
    def test_enumerates_each_hom_set_once(self, monkeypatch, family, generators):
        # the alter ego, the membership checks, the duals and the universal
        # check read the hom-sets the algebras keep, G's pairs first
        copies = {cid: fresh_entry(cid) for cid in generators}
        pairs = count_hom_enumerations(monkeypatch)
        gens = [copies[g] for g in generators]
        members = [copies[b].algebra for b in family]
        coproduct([g.algebra for g in gens], gens[0].spec, None, members)
        names = [g.algebra.name for g in gens]
        assert pairs == list(itertools.product(names, names))

    def test_points_cap(self):
        from latcop.errors import CapExceeded

        f1 = free_algebra([K3.algebra], 1)
        with pytest.raises(CapExceeded):
            coproduct([K3.algebra], K3.spec, None, [f1, f1, f1, f1], points_cap=50)


class TestUniversalCheck:
    """The universal-property check on doctored coproducts built from
    demorgan4 + demorgan4, against homomorphisms into demorgan4: it raises
    whenever some family has other than one mediating map
    (``conftest.mediating_map_counts``), and also when the injection images
    do not generate C, as a coproduct's do."""

    @staticmethod
    def doctored(injections):
        res = coproduct([DM.algebra], DM.spec, None, [DM.algebra, DM.algebra])
        return dataclasses.replace(res, injections=tuple(injections))

    @staticmethod
    def check(doctored, members, failure):
        """The mediating-map counts of the doctored coproduct, after checking
        that the universal check raises with the given reason."""
        counts = mediating_map_counts(doctored, members, DM.algebra)
        with pytest.raises(InternalError, match="^universal property fails against 'demorgan4': " + failure):
            _check_universal_property(doctored)
        return counts

    def test_equal_injections(self):
        # the family (id, id) is mediated by the two maps that agree with
        # id on the first copy; (id, auto) asks two values of one element
        eps = coproduct([DM.algebra], DM.spec, None, [DM.algebra] * 2).injections[0]
        counts = self.check(self.doctored([eps, eps]), [DM.algebra] * 2, "a family prescribes two values")
        assert counts == [2, 0, 0, 2]

    def test_injections_with_one_image(self):
        # the second injection is the first after demorgan4's automorphism,
        # so no map mediates the family (id, id)
        eps = coproduct([DM.algebra], DM.spec, None, [DM.algebra] * 2).injections[0]
        auto = hom_enumerate(DM.algebra, DM.algebra)[1]
        doctored = self.doctored([eps, compose(eps, auto)])
        counts = self.check(doctored, [DM.algebra] * 2, "a family prescribes two values")
        assert counts == [0, 2, 2, 0]

    @pytest.mark.parametrize(
        "elems, counts",
        [
            # every homomorphism into demorgan4 is fixed by these 5 elements,
            # so each family has one mediating map into demorgan4; but C is
            # not the coproduct of the subalgebra: the identity of the
            # subalgebra does not extend to C, whose image would leave it
            ((0, 1, 5, 13, 15), [1, 1, 1, 1]),
            ((0, 1, 13, 15), [2, 1, 1]),
        ],
    )
    def test_images_that_do_not_generate(self, elems, counts):
        c = coproduct([DM.algebra], DM.spec, None, [DM.algebra] * 2).algebra
        assert subuniverse_closure(c, elems) == frozenset(elems)
        sub, _ = induced_subalgebra(c, elems)
        doctored = self.doctored([Homomorphism(sub, c, elems)])
        # the check reads the families off the result: the points of the
        # product of the one member's dual
        ego = doctored.structure.ego
        doctored = dataclasses.replace(doctored, structure=structure_product([natural_dual(sub, ego)], ego=ego))
        assert self.check(doctored, [sub], "the injection images do not generate C") == counts
        # the one-pass check agrees with the closure in C x m^K
        width, rows = _prescribed(doctored, 0)
        assert not _extends_to_hom(c, DM.algebra, rows, width)
        assert not universal_by_closure(c, DM.algebra, rows, width)


def _coproduct_case(family, generators):
    def algebra(cid):
        if cid.startswith("F1:"):
            return free_algebra([make_id(cid[3:]).algebra], 1)
        return make_id(cid).algebra

    gens = [make_id(g) for g in generators]
    members = [algebra(b) for b in family]
    return coproduct([g.algebra for g in gens], gens[0].spec, None, members), members


# the coproducts of the benchmark's construct workload, by family and generators
CONSTRUCT_COPRODUCTS = [
    (("demorgan4",) * 2, ("demorgan4",)),
    (("demorgan4",) * 3, ("demorgan4",)),
    (("heyting_chain(3)",) * 3, ("heyting_chain(3)",)),
    (("demorgan4", "kleene3", "kleene3"), ("demorgan4", "kleene3")),
    (("demorgan4", "demorgan4", "kleene3"), ("demorgan4", "kleene3")),
    (("F1:kleene3",) * 2, ("kleene3",)),
    (("F1:demorgan4",) * 2, ("demorgan4",)),
    (("F1:heyting_chain(3)",) * 2, ("heyting_chain(3)",)),
]


# those and two of two generators; no family goes into either of mv_chain(2)
# and mv_chain(3), so their coproduct has one element
CHECKED_COPRODUCTS = CONSTRUCT_COPRODUCTS + [
    (("mv_chain(2)", "mv_chain(3)"), ("mv_chain(2)", "mv_chain(3)")),
    (("kleene3", "demorgan4"), ("kleene3", "demorgan4")),
]

# the 17 E(X) searches of one pass of the construct workload, per request,
# with their visit counts: the coproducts above, then free algebras of rank
# 2 (a rank in place of the family); a coproduct of F1 members builds each
# member as E of the alter ego first
CONSTRUCT_SEARCHES = [
    (family, generators, visits)
    for (family, generators), visits in zip(
        CONSTRUCT_COPRODUCTS, [[21], [341], [256], [57], [121], [11, 11, 167], [11, 11, 303], [9, 9, 297]]
    )
] + [(2, ("kleene3",), [167]), (2, ("demorgan4",), [327]), (2, ("heyting_chain(3)",), [297])]


def _searches(run) -> list[MultisortedStructure]:
    """The structures ``run()`` hands to ``e_functor``, in call order."""
    searched = []
    real = duality_module.e_functor

    def spy(x, visit_cap=DEFAULT_VISIT_CAP):
        searched.append(x)
        return real(x, visit_cap)

    with mock.patch.object(duality_module, "e_functor", spy):
        run()
    return searched


def _stop(search, x, visit_cap):
    """The (stage, required) at which ``search`` stops under ``visit_cap``."""
    with pytest.raises(CapExceeded) as exc:
        search(x, visit_cap)
    return exc.value.stage, exc.value.required


def _visits_by_reference(x) -> int:
    """E(X)'s visit count, after checking ``e_functor`` against
    ``conftest.e_search_by_reference``: the same morphisms in the same
    order, and the same visit count, as a visit cap equal to it passes and
    one below it stops at it."""
    solutions, visits = e_search_by_reference(x, DEFAULT_VISIT_CAP)
    assert list(e_functor(x, visit_cap=visits).morphisms) == solutions
    assert _stop(e_functor, x, visits - 1) == ("E-functor search", visits)
    return visits


class TestESearchMatchesReference:
    """The E-functor search, with its watchers grouped by table, its memoized
    unions and its resumed pivot scan, against the plain search of
    ``conftest.e_search_by_reference``."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(EGOS).flatmap(
            lambda ego: st.sampled_from([1, None]).flatmap(
                lambda bits: structures(ego, 6 // len(ego.sorts), row_bits=bits)
            )
        )
    )
    def test_random_structures(self, x):
        _visits_by_reference(x)

    @pytest.mark.parametrize("family, generators, visits", CONSTRUCT_SEARCHES)
    def test_construct_searches(self, family, generators, visits):
        if isinstance(family, int):
            searched = _searches(lambda: free_algebra([make_id(g).algebra for g in generators], family))
        else:
            searched = _searches(lambda: _coproduct_case(family, generators))
        assert [_visits_by_reference(x) for x in searched] == visits

    def test_cascading_domains(self):
        # M~^3 over kleene3: 27 points per sort, whose domains narrow by
        # several values per propagation; both searches reach the table
        # charge at visit 4475, with the 2236th solution
        def run():
            with pytest.raises(CapExceeded) as exc:
                free_algebra([K3.algebra], 3)
            assert (exc.value.stage, exc.value.required) == ("table build", 10001630)

        (x,) = _searches(run)
        for search in (e_search_by_reference, e_functor):
            assert _stop(search, x, 4474) == ("E-functor search", 4475)
            assert _stop(search, x, 4475) == ("table build", 10001630)


class TestFamiliesArePoints:
    """The universal check reads its families off the product of duals X:
    as D turns coproducts into products, the points of X in the sort of a
    generator M are the families (f_1, ..., f_n), f_i in Hom(B_i, M), in
    the order of the product of the hom-sets."""

    @pytest.mark.parametrize("family, generators", CHECKED_COPRODUCTS)
    def test_points_are_the_families(self, family, generators):
        res, members = _coproduct_case(family, generators)
        for s, m in enumerate(res.structure.ego.sorts):
            families = tuple(itertools.product(*[hom_enumerate(b, m) for b in members]))
            assert res.structure.points[s] == families


class TestCoproductsAreGenerated:
    """The theorem the universal check relies on: a coproduct is generated
    by its injection images, and each family has exactly one mediating map
    (``conftest.mediating_map_counts``)."""

    @pytest.mark.parametrize("family, generators", CHECKED_COPRODUCTS)
    def test_images_generate_and_mediate_once(self, family, generators):
        res, members = _coproduct_case(family, generators)
        images = {y for eps in res.injections for y in eps.map}
        assert subuniverse_closure(res.algebra, images) == frozenset(range(res.algebra.size))
        for m in res.structure.ego.sorts:
            assert set(mediating_map_counts(res, members, m)) <= {1}

    def test_no_family_gives_one_element(self):
        res, _ = _coproduct_case(("mv_chain(2)", "mv_chain(3)"), ("mv_chain(2)", "mv_chain(3)"))
        assert res.algebra.size == 1
        assert all(_prescribed(res, s)[0] == 0 for s in range(len(res.structure.ego.sorts)))


class TestExtendsToHom:
    """The one-pass universal check against the closure of the graph in
    C x m^K (``conftest.universal_by_closure``)."""

    @pytest.mark.parametrize("family, generators", CONSTRUCT_COPRODUCTS)
    def test_agrees_with_closure_on_coproducts(self, family, generators):
        res, _ = _coproduct_case(family, generators)
        for s, m in enumerate(res.structure.ego.sorts):
            width, rows = _prescribed(res, s)
            if not width:
                continue  # no family into m: nothing to mediate
            assert _extends_to_hom(res.algebra, m, rows, width)
            assert universal_by_closure(res.algebra, m, rows, width)

    @pytest.fixture(scope="class")
    def ternary(self):
        """med3^2 under med3's ternary maj and the non-symmetric lean, with
        the closure's verdicts, which do not depend on the block size, so
        they are computed once for all three blocks."""
        med3 = median_chain()
        square = direct_product([med3, med3])
        gens = generating_set(square)
        homs = {tuple(h.map[x] for x in gens) for h in hom_enumerate(square, med3)}
        assignments = list(itertools.product(range(3), repeat=len(gens)))
        closure = [universal_by_closure(square, med3, dict(zip(gens, zip(v))), 1) for v in assignments]
        columns = sorted(homs)
        bad = next(v for v in assignments if v not in homs)
        good = {x: tuple(col[i] for col in columns) for i, x in enumerate(gens)}
        mixed = {x: row + (bad[i],) for i, (x, row) in enumerate(good.items())}
        mixed_closure = universal_by_closure(square, med3, mixed, len(columns) + 1)
        return med3, square, gens, homs, assignments, closure, columns, good, mixed, mixed_closure

    @pytest.mark.parametrize("block", [1, 5, algebra_module._BLOCK])
    def test_ternary_operations(self, block, ternary):
        # a column of values on a generating set extends exactly when it is
        # the restriction of a homomorphism, as the closure says
        med3, square, gens, homs, assignments, closure, columns, good, mixed, mixed_closure = ternary
        assert closure == [v in homs for v in assignments]
        assert not mixed_closure
        # small blocks put block seams everywhere
        with mock.patch.object(algebra_module, "_BLOCK", block):
            assert [_extends_to_hom(square, med3, dict(zip(gens, zip(v))), 1) for v in assignments] == closure
            assert _extends_to_hom(square, med3, good, len(columns))
            assert not _extends_to_hom(square, med3, mixed, len(columns) + 1)

    def test_seeds_that_do_not_generate(self):
        # the constants alone generate only {0, 2} of med3
        med3 = median_chain()
        assert not _extends_to_hom(med3, med3, {}, 1)
        assert not universal_by_closure(med3, med3, {}, 1)
        assert _extends_to_hom(med3, med3, {1: (1,)}, 1)


class TestRevEng:
    @pytest.mark.parametrize(
        "key,params",
        [
            ("demorgan4", ()), ("kleene3", ()), ("bool2", ()),
            ("heyting_chain", (3,)), ("pseudo_b", (2,)), ("mv_chain", (3,)),
            ("moisil_L", (3,)), ("pre_moisil_M0", (2,)),
        ],
    )
    def test_quotient_matches_priestley_dual(self, key, params):
        entry = make(key, *params)
        res = reveng_priestley(entry.algebra, ego_for(key, *params))
        assert res.isomorphism is not None

    @pytest.mark.parametrize("pairs,axiom", [
        ({(0, 0), (1, 1), (2, 2)}, "reflexive"),  # point 3 is not related to itself
        ({(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2)}, "transitive"),
    ])
    def test_a_broken_preorder_is_an_internal_error(self, monkeypatch, pairs, axiom):
        # the square of demorgan4 has four dual points and one relation,
        # which alone is the reconstruction preorder; replace it
        square = direct_product([DM.algebra, DM.algebra])
        ego = ego_for("demorgan4")
        dual = natural_dual(square, ego)
        assert len(dual.points[0]) == 4 and len(dual.relations) == 1
        rows = tuple(sum(1 << q for p, q in pairs if p == x) for x in range(4))
        broken = dataclasses.replace(dual, relations=(rows,))
        monkeypatch.setattr(duality_module, "natural_dual", lambda *args, **kwargs: broken)
        with pytest.raises(InternalError, match=f"reconstruction preorder is not {axiom}"):
            reveng_priestley(square, ego)

    @staticmethod
    def check_rows(algebra, ego):
        # the lifted relations pair by pair, and the preorder by its triple
        # loop over (pair, pair, relation)
        dual = natural_dual(algebra, ego)
        assert tuple(pairs_of(rows) for rows in dual.relations) == lift_by_pairs(algebra, ego, dual.points)
        res = reveng_priestley(algebra, ego)
        assert list(res.preorder.preceq_rows) == reconstruction_rows_by_triples(ego, dual)

    @pytest.mark.parametrize("entry", [e for e, _ in table1_suite()], ids=lambda e: e.key)
    def test_rows_match_the_pairwise_lifting(self, entry):
        self.check_rows(entry.algebra, ego_for(entry.constructor, *entry.params))

    @pytest.mark.parametrize("algebra", [K3.algebra, DM.algebra, direct_product([K3.algebra, DM.algebra])], ids=["kleene3", "demorgan4", "product"])
    def test_two_sort_rows_match_the_pairwise_lifting(self, algebra):
        # the sorts have 3 and 4 elements, and hom(algebra, sort) sizes differ
        self.check_rows(algebra, EGOS[2])

    @staticmethod
    def check_canonical_map(algebra, ego):
        # class c of the quotient (numbered by first occurrence of its row)
        # goes to the prime filter u^-1(w) of each pair (u, w) in it, and
        # that map is an order-isomorphism onto the prime-filter poset
        res = reveng_priestley(algebra, ego)
        dual = natural_dual(algebra, ego)
        filters = [f.elements for f in prime_filters(d_reduct(algebra, ego.spec))]
        classes: dict[int, int] = {}
        for (s, p, wi), row in zip(res.preorder.elements, res.preorder.preceq_rows):
            c = classes.setdefault(row, len(classes))
            pre = frozenset(a for a, v in enumerate(dual.points[s][p].map) if v in ego.carriers[wi])
            assert res.isomorphism[c] == filters.index(pre)
        assert len(classes) == res.quotient.size == len(filters)
        assert sorted(res.isomorphism) == list(range(len(filters)))
        q = res.quotient.size
        for c, d in itertools.product(range(q), repeat=2):
            assert res.quotient.leq(c, d) == res.priestley.leq(res.isomorphism[c], res.isomorphism[d])

    @pytest.mark.parametrize("entry", [e for e, _ in table1_suite()], ids=lambda e: e.key)
    def test_isomorphism_is_the_canonical_map(self, entry):
        self.check_canonical_map(entry.algebra, ego_for(entry.constructor, *entry.params))

    @pytest.mark.parametrize("key,params", [("kleene3", ()), ("demorgan4", ()), ("heyting_chain", (3,))])
    def test_isomorphism_is_the_canonical_map_on_free_algebras(self, key, params):
        free1 = free_algebra([make(key, *params).algebra], 1)
        self.check_canonical_map(free1, ego_for(key, *params))

    def test_a_reversed_preorder_is_an_internal_error(self, monkeypatch):
        # transposing every lifted relation of heyting_chain(4)'s dual
        # reverses the preorder: it is still a preorder and its quotient is
        # still a 3-chain, but u^-1(w) now runs against the order
        entry = make("heyting_chain", 4)
        ego = ego_for("heyting_chain", 4)
        dual = natural_dual(entry.algebra, ego)

        def transpose(rel, rows):
            sources = range(len(dual.points[rel.sort1]))
            return tuple(
                sum(1 << p for p in sources if rows[p] >> q & 1)
                for q in range(len(dual.points[rel.sort2]))
            )

        reversed_dual = dataclasses.replace(
            dual, relations=tuple(transpose(rel, rows) for rel, rows in zip(ego.relations, dual.relations))
        )
        rows = reconstruction_rows_by_triples(ego, reversed_dual)
        distinct = list(dict.fromkeys(rows))
        cls = [distinct.index(r) for r in rows]
        pairs = {(cls[y], cls[z]) for y, r in enumerate(rows) for z in range(len(rows)) if r >> z & 1}
        quotient = poset_from_pairs(len(distinct), pairs)
        assert poset_isomorphic(quotient, chain_poset(3)) is not None
        monkeypatch.setattr(duality_module, "natural_dual", lambda *args, **kwargs: reversed_dual)
        with pytest.raises(InternalError, match="reconstruction quotient is not isomorphic to the Priestley dual"):
            reveng_priestley(entry.algebra, ego)

    def test_kleene_shape(self):
        res = reveng_priestley(K3.algebra, ego_for("kleene3"))
        assert res.preorder.size == 2
        # (id, w2) strictly below (id, w1): a two-chain
        assert poset_isomorphic(res.quotient, chain_poset(2)) is not None

    def test_single_relation_orders_the_dual(self):
        # single sort, single carrier, unique relation: the lifted relation
        # itself orders the dual
        for key, params in [
            ("demorgan4", ()), ("bool2", ()), ("pseudo_b", (1,)),
            ("mv_chain", (1,)), ("pre_moisil_L0", (2,)),
        ]:
            entry = make(key, *params)
            ego = ego_for(key, *params)
            poset = reconstruction_order_poset(entry.algebra, ego)
            expected = priestley_dual(d_reduct(entry.algebra, entry.spec))
            assert poset_isomorphic(poset, expected) is not None


class TestIota:
    def test_demorgan_pair(self):
        chk = iota_check([DM.algebra], DM.spec, None, [DM.algebra, DM.algebra])
        assert chk.surjective and chk.order_embedding
        assert chk.coproduct_size == 16
        rep = report_for("demorgan4")
        assert (chk.surjective, chk.order_embedding) == (
            rep.verdict_E, rep.verdict_S,
        )

    def test_kleene_pair(self):
        chk = iota_check([K3.algebra], K3.spec, None, [K3.algebra, K3.algebra])
        assert chk.order_embedding and not chk.surjective
        rep = report_for("kleene3")
        assert (chk.surjective, chk.order_embedding) == (
            rep.verdict_E, rep.verdict_S,
        )

    def test_kleene_image_matches_lambda_formula(self):
        chk = iota_check([K3.algebra], K3.spec, None, [K3.algebra, K3.algebra])
        lam = lambda_map(K3.algebra, ego_for("kleene3"))
        expected = tuple(
            sorted(
                (i, j)
                for i in range(len(lam))
                for j in range(len(lam))
                if lam[i][1] & lam[j][1]
            )
        )
        assert chk.image == expected

    def test_goedel_pair(self):
        chk = iota_check([C3.algebra], C3.spec, None, [C3.algebra, C3.algebra])
        assert chk.surjective and not chk.order_embedding
        rep = report_for("heyting_chain", 3)
        assert (chk.surjective, chk.order_embedding) == (
            rep.verdict_E, rep.verdict_S,
        )

    def test_singleton_family(self):
        chk = iota_check([K3.algebra], K3.spec, None, [K3.algebra])
        assert chk.surjective and chk.order_embedding

    def test_mv_pair_agrees_with_classifier(self):
        mv2 = make("mv_chain", 2)
        chk = iota_check([mv2.algebra], mv2.spec, None, [mv2.algebra, mv2.algebra])
        rep = report_for("mv_chain", 2)
        assert (chk.surjective, chk.order_embedding) == (
            rep.verdict_E, rep.verdict_S,
        )

    @pytest.mark.parametrize(
        "key,params",
        [("demorgan4", ()), ("kleene3", ()), ("heyting_chain", (3,)),
         ("mv_chain", (2,)), ("mv_chain", (3,))],
    )
    def test_image_equals_carrier_intersection_formula(self, key, params):
        # the range of the canonical map is exactly the tuples whose carrier
        # sets intersect
        entry = make(key, *params)
        ego = ego_for(key, *params)
        chk = iota_check([entry.algebra], entry.spec, None,
                         [entry.algebra, entry.algebra])
        lam = lambda_map(entry.algebra, ego)
        formula = tuple(
            sorted(
                (i, j)
                for i in range(len(lam))
                for j in range(len(lam))
                if lam[i][1] & lam[j][1]
            )
        )
        assert chk.image == formula


class TestLambda:
    def test_kleene_values(self):
        lam = lambda_map(K3.algebra, ego_for("kleene3"))
        by_filter = {f.elements: ws for f, ws in lam}
        assert by_filter == {
            frozenset({1, 2}): frozenset({0}),
            frozenset({2}): frozenset({1}),
        }

    def test_demorgan_singleton_omega(self):
        lam = lambda_map(DM.algebra, ego_for("demorgan4"))
        assert all(ws == frozenset({0}) for _, ws in lam)


class TestFactorization:
    @pytest.mark.parametrize(
        "key,params",
        [("demorgan4", ()), ("kleene3", ()), ("heyting_chain", (3,))],
    )
    def test_iota_after_phi_equals_psi(self, key, params):
        # compute iota on filters, then check it factors the pointwise map
        entry = make(key, *params)
        ego = ego_for(key, *params)
        family = [entry.algebra, entry.algebra]
        cop = coproduct([entry.algebra], entry.spec, None, family)
        chk = iota_check([entry.algebra], entry.spec, None, family)
        uc = d_reduct(cop.algebra, entry.spec)
        pf_c = {f.elements: i for i, f in enumerate(prime_filters(uc))}
        pf_b = prime_filters(d_reduct(entry.algebra, entry.spec))
        pf_b_index = {f.elements: i for i, f in enumerate(pf_b)}
        dual_c = natural_dual(cop.algebra, ego)
        for wi, w in enumerate(ego.carriers):
            s = ego.sort_index(w.sort)
            for x in dual_c.points[s]:
                # Phi: (x, w) -> the filter pulled back through x
                filt = frozenset(
                    a for a in range(cop.algebra.size) if x.map[a] in w.elements
                )
                iota_of_phi = chk.tuples[pf_c[filt]]
                # Psi: componentwise pullbacks through the injections
                psi = tuple(
                    pf_b_index[
                        frozenset(
                            b
                            for b in range(entry.algebra.size)
                            if x.map[eps.map[b]] in w.elements
                        )
                    ]
                    for eps in cop.injections
                )
                assert iota_of_phi == psi


class TestReflector:
    def test_identity_when_member(self):
        res = reflector(K3.algebra, [K3.algebra])
        assert res.algebra.size == 3 and not res.collapsed

    def test_demorgan_to_kleene_collapses(self):
        # no De Morgan homomorphisms from the diamond into the chain
        res = reflector(DM.algebra, [K3.algebra])
        assert res.algebra.size == 1 and res.collapsed

    def test_kleene_coproduct_via_demorgan_envelope(self):
        cop_dm = coproduct([DM.algebra], DM.spec, None, [K3.algebra, K3.algebra])
        assert cop_dm.algebra.size == 6
        res = reflector(cop_dm.algebra, [K3.algebra])
        native = coproduct([K3.algebra], K3.spec, None, [K3.algebra, K3.algebra])
        assert isomorphic(res.algebra, native.algebra) is not None

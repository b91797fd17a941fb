"""Carrier maps, separation, and maximal algebraic relations."""

import dataclasses
import functools
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bounds_preserved,
    brute_force_maximal_subuniverses,
    count_hom_enumerations,
    decode,
    encode,
    fresh_entry,
    leq_sublattice,
    median_chain,
    minimal_omega_by_sep,
    one_element,
    preimage_masks,
    relation_orbit_count,
    relation_sizes,
    sep_by_loop,
    separation_masks_by_loop,
    unique_max_applicable,
)
from latcop import algebra as algebra_module
from latcop.algebra import FiniteAlgebra, Signature, _closure, direct_product, hom_enumerate, subuniverse_closure
from latcop.catalog import make, make_id, table1_suite
from latcop.classify import flowchart_classify
from latcop.distlat import DReductSpec, _bits, _mask
from latcop import piggyback
from latcop.errors import CapExceeded, SeparationError
from latcop.piggyback import (
    AlterEgo,
    build_alter_ego,
    carrier_from_filter,
    carriers_of,
    leq_mask,
    maximal_subuniverses_in,
    minimal_omega_certified,
    sep_condition,
)

DM = make("demorgan4")
K3 = make("kleene3")
C3 = make("heyting_chain", 3)
B2 = make("bool2")

# every catalog algebra this module builds
CATALOG = [
    ("bool2", ()),
    ("demorgan4", ()),
    ("kleene3", ()),
    ("heyting_chain", (3,)),
    ("moisil_M", (3,)),
    ("moisil_L", (3,)),
    ("mv_chain", (1,)),
    ("mv_chain", (2,)),
    ("mv_chain", (3,)),
    ("mv_chain", (6,)),
    ("pseudo_b", (0,)),
    ("pseudo_b", (1,)),
    ("pseudo_b", (2,)),
    ("pseudo_b", (3,)),
    ("pre_moisil_L0", (2,)),
    ("pre_moisil_L0", (3,)),
    ("pre_moisil_M0", (2,)),
]

# the generator sets the carrier search is checked on
SEARCH_INPUTS = [((key, params),) for key, params in CATALOG] + [
    (("demorgan4", ()), ("kleene3", ())),
    (("kleene3", ()), ("kleene3", ())),
]


def generators_of(keys):
    entries = [make(key, *params) for key, params in keys]
    return [e.algebra for e in entries], entries[0].spec


DM_R = (  # the known nine-pair maximal relation, 0,a,b,1 as 0,1,2,3
    (0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3),
)


class TestCarriers:
    def test_canonical_enumeration(self):
        cs = carriers_of(DM.algebra, DM.spec)
        assert [c.elements for c in cs] == [frozenset({1, 3}), frozenset({2, 3})]

    def test_carriers_carry_the_algebra_passed(self):
        # the cached reduct belongs to the catalog's kleene3; an equal copy
        # still gets carriers whose sort is the copy itself
        b = dataclasses.replace(K3.algebra)
        assert b == K3.algebra and b is not K3.algebra
        assert all(w.sort is b for w in carriers_of(b, K3.spec))
        ego = build_alter_ego([b], K3.spec)
        assert ego.sorts[0] is b
        assert all(w.sort is ego.sorts[0] for w in ego.carriers)

    def test_carrier_from_filter_rejects_non_filters(self):
        with pytest.raises(Exception):
            carrier_from_filter(DM.algebra, DM.spec, {0, 1})


class TestSepCondition:
    def test_demorgan_single_carrier(self):
        w = carrier_from_filter(DM.algebra, DM.spec, {1, 3})
        assert sep_condition([DM.algebra], [w]).holds

    def test_kleene_single_carrier_fails_with_witness(self):
        w1 = carrier_from_filter(K3.algebra, K3.spec, {1, 2})
        res = sep_condition([K3.algebra], [w1])
        assert not res.holds
        assert res.witness is not None
        _, a, b = res.witness
        assert {a, b} in ({0, 1}, {1, 2})

    def test_full_carrier_set_always_separates(self):
        for entry in (DM, K3, C3, make("mv_chain", 3)):
            cs = carriers_of(entry.algebra, entry.spec)
            assert sep_condition([entry.algebra], cs).holds

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=5), min_size=0, max_size=6))
    def test_monotone_in_omega(self, extra_idx):
        # if a set separates, every superset does
        entry = make("mv_chain", 6)
        cs = carriers_of(entry.algebra, entry.spec)
        base = list(cs)  # the full set separates
        subset = tuple(c for i, c in enumerate(cs) if i in extra_idx)
        if sep_condition([entry.algebra], subset).holds:
            assert sep_condition([entry.algebra], base).holds


    @pytest.mark.parametrize("keys", SEARCH_INPUTS)
    def test_matches_loop_on_every_carrier_subset(self, keys):
        gens, spec = generators_of(keys)
        carriers = [c for m in gens for c in carriers_of(m, spec)]
        for size in range(len(carriers) + 1):
            for combo in itertools.combinations(carriers, size):
                res = sep_condition(gens, combo)
                assert (res.holds, res.witness) == sep_by_loop(gens, combo)


class TestMinimalOmega:
    def test_demorgan_picks_first_with_alternative(self):
        om, cert = minimal_omega_certified([DM.algebra], DM.spec)
        assert [w.elements for w in om] == [frozenset({1, 3})]
        assert cert.size == 1 and cert.alternatives == 1

    def test_kleene_needs_both(self):
        om = minimal_omega_certified([K3.algebra], K3.spec)[0]
        assert [w.elements for w in om] == [frozenset({1, 2}), frozenset({2})]

    def test_bool2_single(self):
        om = minimal_omega_certified([B2.algebra], B2.spec)[0]
        assert [w.elements for w in om] == [frozenset({1})]

    @pytest.mark.parametrize("keys", SEARCH_INPUTS)
    def test_matches_separation_loop(self, keys):
        gens, spec = generators_of(keys)
        carriers = [c for m in gens for c in carriers_of(m, spec)]
        omega, cert = minimal_omega_certified(gens, spec)
        assert (omega, cert.size, cert.alternatives, tuple(range(1, cert.size))) == (
            minimal_omega_by_sep(gens, carriers)
        )


class TestLeqSublattice:
    def test_one_element_sort(self):
        one = one_element(B2.algebra.signature)
        # a one-element algebra has no carriers; use bool2's single carrier twice
        w = carrier_from_filter(B2.algebra, B2.spec, {1})
        assert len(leq_sublattice(w, w)) == 3

    def test_demorgan_excluded_pairs(self):
        w = carrier_from_filter(DM.algebra, DM.spec, {1, 3})
        pairs = leq_sublattice(w, w)
        assert len(pairs) == 12
        assert all((a, b) not in pairs for a in (1, 3) for b in (0, 2))

    def test_kleene_cross(self):
        w1 = carrier_from_filter(K3.algebra, K3.spec, {1, 2})
        w2 = carrier_from_filter(K3.algebra, K3.spec, {2})
        pairs = leq_sublattice(w1, w2)
        assert set(itertools.product(range(3), repeat=2)) - pairs == {
            (1, 0), (1, 1), (2, 0), (2, 1),
        }


class TestMaximalSubuniverses:
    def test_demorgan_nine_pair_relation(self):
        w = carrier_from_filter(DM.algebra, DM.spec, {1, 3})
        factors = [DM.algebra, DM.algebra]
        square = direct_product(factors)
        allowed = {encode(factors, p) for p in leq_sublattice(w, w)}
        rels = maximal_subuniverses_in(square, allowed)
        assert len(rels) == 1
        assert sorted(decode(factors, x) for x in rels[0]) == sorted(DM_R)

    def test_goedel_two_relations(self):
        w = carrier_from_filter(C3.algebra, C3.spec, {2})
        factors = [C3.algebra, C3.algebra]
        square = direct_product(factors)
        allowed = {encode(factors, p) for p in leq_sublattice(w, w)}
        rels = [sorted(decode(factors, x) for x in r)
                for r in maximal_subuniverses_in(square, allowed)]
        assert rels == [
            [(0, 0), (1, 1), (2, 2)],
            [(0, 0), (1, 2), (2, 2)],
        ]

    def test_full_universe_gives_whole_product(self):
        square = direct_product([K3.algebra, K3.algebra])
        rels = maximal_subuniverses_in(square, range(square.size))
        assert rels == [frozenset(range(square.size))]

    def test_nullary_escape_gives_empty(self):
        factors = [K3.algebra, K3.algebra]
        square = direct_product(factors)
        allowed = set(range(square.size)) - {encode(factors, (0, 0))}
        assert maximal_subuniverses_in(square, allowed) == []

    def test_emitted_relations_closed_and_inside(self):
        for entry in (DM, K3, C3):
            for w1 in carriers_of(entry.algebra, entry.spec):
                for w2 in carriers_of(entry.algebra, entry.spec):
                    factors = [entry.algebra, entry.algebra]
                    square = direct_product(factors)
                    allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                    rels = maximal_subuniverses_in(square, allowed)
                    for r in rels:
                        assert r <= allowed
                        assert subuniverse_closure(square, r) == r
                        # maximality: adding any allowed element breaks it
                        for e in allowed - r:
                            grown = subuniverse_closure(square, set(r) | {e})
                            assert not grown <= allowed
                    # no relation contains another
                    assert not any(
                        a < b for a in rels for b in rels
                    )

    @pytest.mark.parametrize(
        "key,params",
        [
            ("kleene3", ()),
            ("pseudo_b", (0,)),
            ("pseudo_b", (1,)),
            ("heyting_chain", (3,)),
            ("mv_chain", (1,)),
            ("mv_chain", (2,)),
        ],
    )
    def test_matches_brute_force_on_small_squares(self, key, params):
        entry = make(key, *params)
        factors = [entry.algebra, entry.algebra]
        square = direct_product(factors)
        assert square.size <= 12
        for w1 in carriers_of(entry.algebra, entry.spec):
            for w2 in carriers_of(entry.algebra, entry.spec):
                allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                fast = maximal_subuniverses_in(square, allowed)
                brute = brute_force_maximal_subuniverses(square, allowed)
                assert fast == brute


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_on_random_algebras(self, data):
        # f picks one of its arguments and g is the identity, except at a
        # few random entries, so that many subsets are closed and the search
        # goes deep
        n = data.draw(st.integers(1, 8), label="size")
        values = st.integers(0, n - 1)
        const = data.draw(st.none() | values, label="constant")
        symbols = (("f", 2), ("g", 1))
        picks = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        f = [(x, y)[pick] for (x, y), pick in zip(itertools.product(range(n), repeat=2), picks)]
        g = list(range(n))
        for table in (f, g):
            noise = st.tuples(st.integers(0, len(table) - 1), values)
            for i, v in data.draw(st.lists(noise, max_size=4)):
                table[i] = v
        tables = (tuple(f), tuple(g))
        if const is not None:
            symbols += (("c", 0),)
            tables += ((const,),)
        alg = FiniteAlgebra("random", n, Signature(symbols), tables)
        p = direct_product([alg, alg]) if data.draw(st.booleans(), label="square") else alg
        allowed = data.draw(st.sets(st.integers(0, p.size - 1), max_size=12), label="allowed")
        grown = allowed | subuniverse_closure(p, ())
        if data.draw(st.booleans(), label="add least subuniverse") and len(grown) <= 12:
            allowed = grown
        assert maximal_subuniverses_in(p, allowed) == brute_force_maximal_subuniverses(p, allowed)

    def test_ternary_square_matches_brute_force(self):
        # the ternary operations come first in the signature, so every
        # violation is found on the arity >= 3 path; the allowed sets are
        # those of the carrier pairs, then every set holding the constants
        med3 = median_chain()
        spec = DReductSpec.literal()
        factors = [med3, med3]
        square = direct_product(factors)
        for w1 in carriers_of(med3, spec):
            for w2 in carriers_of(med3, spec):
                allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                assert maximal_subuniverses_in(square, allowed) == (
                    brute_force_maximal_subuniverses(square, allowed)
                )
        consts = set(square.constants())
        others = [x for x in range(square.size) if x not in consts]
        for k in range(len(others) + 1):
            for extra in itertools.combinations(others, k):
                allowed = consts.union(extra)
                assert maximal_subuniverses_in(square, allowed) == (
                    brute_force_maximal_subuniverses(square, allowed)
                )


# the benchmark's classify ladder past Table 1
LADDER_IDS = [
    "mv_chain(7)", "mv_chain(8)", "moisil_L(7)", "moisil_L(8)",
    "heyting_chain(8)", "pre_moisil_L0(4)", "pre_moisil_M0(3)", "pseudo_b(4)",
]


class TestSeparationTable:
    """The batched separation table against the pair-by-pair loop."""

    @pytest.mark.parametrize(
        "keys", SEARCH_INPUTS + [(i,) for i in LADDER_IDS], ids=lambda keys: "+".join(map(str, keys))
    )
    def test_masks_match_the_loop(self, keys):
        if isinstance(keys[0], str):
            entry = make_id(keys[0])
            gens, spec = [entry.algebra], entry.spec
        else:
            gens, spec = generators_of(keys)
        carriers = [c for m in gens for c in carriers_of(m, spec)]
        pairs, masks = piggyback._separation_table(gens, carriers)
        assert pairs == [(i, a, b) for i, m in enumerate(gens) for a, b in itertools.combinations(range(m.size), 2)]
        assert masks == separation_masks_by_loop(gens, carriers)

    def test_no_homs_and_one_element_generators(self):
        # the one-element algebra has no pairs and, as 0 = 1 there, an empty
        # hom-set into bool2, whose one pair its one carrier splits
        one = one_element(B2.algebra.signature)
        gens = [one, B2.algebra]
        carriers = carriers_of(B2.algebra, B2.spec)
        pairs, masks = piggyback._separation_table(gens, carriers)
        assert pairs == [(1, 0, 1)]
        assert masks == separation_masks_by_loop(gens, carriers) == [1]


class TestSearchSetUp:
    """The relation search's set-up against the oracles it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_masks_match_the_bitwise_preimages(self, data):
        n = data.draw(st.integers(1, 20))
        arity = data.draw(st.integers(1, 2))
        table = data.draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        s = data.draw(st.integers(0, (1 << n) - 1))
        values = data.draw(st.lists(st.integers(0, n - 1)))
        pre = preimage_masks(table, n)
        masks = piggyback._Preimages(table, n)
        outside = [z for z in range(n) if not s >> z & 1]
        assert masks.escape(np.array([not s >> z & 1 for z in range(n)])) == sum(pre[z] for z in outside)
        assert masks.union(values) == functools.reduce(operator.or_, (pre[z] for z in values), 0)
        assert [masks.union([z]) for z in range(n)] == pre

    @pytest.mark.parametrize(
        "entry", [e for e, _ in table1_suite()] + [make_id(i) for i in LADDER_IDS], ids=lambda e: e.key
    )
    def test_swapped_principal_closures(self, entry):
        # every square of one sort that the classification searches: one
        # closure per orbit {e, swap(e)}, the mirror read off by swapping
        report = flowchart_classify([entry.algebra], entry.spec, size_cap=20)
        for sort in dict.fromkeys(w.sort for w in report.ego.carriers):
            factors = [sort, sort]
            square = direct_product(factors)
            swap = [encode(factors, reversed(decode(factors, x))) for x in range(square.size)]
            principal: dict[int, int] = {}
            closures = 0
            for e in range(square.size):
                if e not in principal:
                    piggyback._close_principal(square, e, swap, principal)
                    closures += 1
            assert principal == {e: _mask(subuniverse_closure(square, (e,))) for e in range(square.size)}
            assert closures == (square.size + sort.size) // 2

    @pytest.mark.parametrize("key, params", [("pseudo_b", (3,)), ("heyting_chain", (5,)), ("pre_moisil_M0", (2,))])
    def test_alter_ego_closes_one_of_each_mirror_pair(self, monkeypatch, key, params):
        # build_alter_ego tells the search its square is of one sort, so
        # of e and swap(e) at most one is ever closed
        entry = make(key, *params)
        factors = [entry.algebra, entry.algebra]
        seeds = []

        def recorded(product, seed):
            seeds.extend(seed)
            return _closure(product, seed)

        # the listing streams no closure but the principal ones
        monkeypatch.setattr(piggyback, "_closure", recorded)
        build_alter_ego([entry.algebra], entry.spec)
        mirrors = {encode(factors, reversed(decode(factors, e))) for e in seeds}
        assert seeds and len(seeds) == len(set(seeds))
        assert all(decode(factors, e)[0] == decode(factors, e)[1] for e in mirrors & set(seeds))


    def test_few_principal_closures_are_walked_to_the_end(self, monkeypatch):
        # mv_chain(7)'s 64-element square has 6 distinct principal
        # subuniverses; closing one element of each mirror pair walks 36
        # closures, and all but these stop at a known closure holding e
        m = make("mv_chain", 7).algebra
        factors = [m, m]
        square = direct_product(factors)
        swap = [encode(factors, reversed(decode(factors, x))) for x in range(square.size)]
        ended = []

        def counted(product, seed):
            yield from _closure(product, seed)
            ended.append(seed)

        monkeypatch.setattr(piggyback, "_closure", counted)
        principal: dict[int, int] = {}
        for e in range(square.size):
            if e not in principal:
                piggyback._close_principal(square, e, swap, principal)
        assert principal == {e: _mask(subuniverse_closure(square, (e,))) for e in range(square.size)}
        assert len(set(principal.values())) == 6
        assert len(ended) == 5

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_streamed_and_principal_closures_on_random_squares(self, data):
        # the random algebras of the brute-force test above, on squares:
        # the early stop depends on the order the elements are closed in,
        # and the root class reads a streamed closure
        n = data.draw(st.integers(1, 8), label="size")
        values = st.integers(0, n - 1)
        const = data.draw(st.none() | values, label="constant")
        symbols = (("f", 2), ("g", 1))
        picks = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        f = [(x, y)[pick] for (x, y), pick in zip(itertools.product(range(n), repeat=2), picks)]
        g = list(range(n))
        for table in (f, g):
            noise = st.tuples(st.integers(0, len(table) - 1), values)
            for i, v in data.draw(st.lists(noise, max_size=4)):
                table[i] = v
        tables = (tuple(f), tuple(g))
        if const is not None:
            symbols += (("c", 0),)
            tables += ((const,),)
        alg = FiniteAlgebra("random", n, Signature(symbols), tables)
        factors = [alg, alg]
        square = direct_product(factors)
        swap = [encode(factors, reversed(decode(factors, x))) for x in range(square.size)]
        principal: dict[int, int] = {}
        for e in data.draw(st.permutations(range(square.size)), label="order"):
            if e not in principal:
                piggyback._close_principal(square, e, swap, principal)
        assert principal == {e: _mask(subuniverse_closure(square, (e,))) for e in range(square.size)}
        seed = data.draw(st.lists(st.integers(0, square.size - 1), max_size=4), label="seed")
        members = list(_closure(square, seed))
        assert len(members) == len(set(members))
        assert frozenset(members) == subuniverse_closure(square, seed)
        assert members[: len(set(seed))] == list(dict.fromkeys(seed))
        allowed = data.draw(st.sets(st.integers(0, square.size - 1), max_size=12), label="allowed")
        grown = allowed | subuniverse_closure(square, ())
        if data.draw(st.booleans(), label="add least subuniverse") and len(grown) <= 12:
            allowed = grown
        root_class = piggyback._relation_search(square, n).root_class(_mask(allowed))
        assert root_class == min(len(brute_force_maximal_subuniverses(square, allowed)), 2)


class TestNodeBudget:
    # the search of pseudo_b(3)'s square, deleting up[e] with each e, visits
    # exactly this many nodes; deleting e alone it visits 2,163, and without
    # the dead-branch prune 21,402
    NODES = 697

    def test_exact_budget_suffices(self, monkeypatch):
        entry = make("pseudo_b", 3)
        monkeypatch.setattr(piggyback, "RELATION_NODE_BUDGET", self.NODES)
        assert len(build_alter_ego([entry.algebra], entry.spec).relations) == 27

    def test_one_node_fewer_names_stage_budget_and_need(self, monkeypatch):
        entry = make("pseudo_b", 3)
        monkeypatch.setattr(piggyback, "RELATION_NODE_BUDGET", self.NODES - 1)
        with pytest.raises(CapExceeded) as info:
            build_alter_ego([entry.algebra], entry.spec)
        exc = info.value
        assert (exc.stage, exc.budget, exc.required) == ("relation search", self.NODES - 1, self.NODES)


# the carrier pairs the root class is checked on: 519 over these 37 algebras
ROOT_CLASS_ALGEBRAS = [("bool2", ()), ("demorgan4", ()), ("kleene3", ())] + [
    (family, (n,))
    for family in ("heyting_chain", "mv_chain", "moisil_L", "moisil_M", "pre_moisil_L0", "pre_moisil_M0")
    for n in range(2, 7)
] + [("pseudo_b", (n,)) for n in range(4)]


class TestRootClass:
    """|R| capped at 2, read off the search's root, against the full listing."""

    @pytest.mark.parametrize("key, params", ROOT_CLASS_ALGEBRAS, ids=lambda v: str(v))
    def test_matches_the_listing_on_every_carrier_pair(self, key, params):
        # the root reads a search set up with the swap, the listing one
        # set up without it
        entry = make(key, *params)
        m = entry.algebra
        square = direct_product([m, m])
        root_class = piggyback._relation_search(square, m.size).root_class
        listing = piggyback._relation_search(square).maximal
        for w1, w2 in itertools.product(carriers_of(m, entry.spec), repeat=2):
            allowed = leq_mask(w1, w2)
            assert root_class(allowed) == min(len(listing(allowed)), 2), (w1.label(), w2.label())

    def test_the_algebras_have_519_carrier_pairs(self):
        entries = [make(key, *params) for key, params in ROOT_CLASS_ALGEBRAS]
        assert sum(len(carriers_of(e.algebra, e.spec)) ** 2 for e in entries) == 519

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_listing_on_random_algebras(self, data):
        # symbols of arity 0 to 3 whose tables mostly pick an argument, so
        # that many subsets are closed; the allowed set is random, with base
        # and a few principal closures, or then misses part of base, or is
        # cut down until no principal closure fits
        n = data.draw(st.integers(1, 4), label="size")
        values = st.integers(0, n - 1)
        kind = data.draw(st.sampled_from(["random"] * 4 + ["base escapes", "s empty"]), label="kind")
        arities = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4), label="arities")
        if kind == "base escapes":
            arities.append(0)
        elif kind == "s empty":
            arities = [a for a in arities if a] or [1]
        symbols, tables = [], []
        for k, arity in enumerate(arities):
            if arity == 0:
                table = [data.draw(values)]
            else:
                picks = data.draw(st.lists(st.integers(0, arity - 1), min_size=n**arity, max_size=n**arity))
                table = [args[pick] for args, pick in zip(itertools.product(range(n), repeat=arity), picks)]
                for i, v in data.draw(st.lists(st.tuples(st.integers(0, n**arity - 1), values), max_size=3)):
                    table[i] = v
            symbols.append((f"f{k}", arity))
            tables.append(tuple(table))
        alg = FiniteAlgebra("random", n, Signature(tuple(symbols)), tuple(tables))
        p = direct_product([alg, alg]) if n <= 3 and data.draw(st.booleans(), label="square") else alg
        search = piggyback._relation_search(p)
        base = _mask(subuniverse_closure(p, ()))
        allowed = data.draw(st.integers(0, (1 << p.size) - 1), label="allowed") | base
        for e in data.draw(st.lists(st.integers(0, p.size - 1), max_size=3), label="kept"):
            allowed |= _mask(subuniverse_closure(p, (e,)))
        if kind == "base escapes":
            allowed &= ~(base & -base)
            assert base & ~allowed
        elif kind == "s empty":
            principal = [_mask(subuniverse_closure(p, (e,))) for e in range(p.size)]
            while fits := [e for e in _bits(allowed) if not principal[e] & ~allowed]:
                allowed &= ~(1 << fits[0])
        expected = min(len(search.maximal(allowed)), 2)
        assert search.root_class(allowed) == expected
        if kind != "random":
            assert expected == 0


class TestMaximalityCertificate:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_heyting_chain_relations_are_maximal(self, n):
        # each listed relation is closed and allowed, none holds another,
        # and adding any allowed element outside one escapes the allowed set
        entry = make("heyting_chain", n)
        ego = build_alter_ego([entry.algebra], entry.spec)
        factors = [entry.algebra, entry.algebra]
        square = direct_product(factors)
        principal = [frozenset(subuniverse_closure(square, [e])) for e in range(square.size)]
        for i, w1 in enumerate(ego.carriers):
            for j, w2 in enumerate(ego.carriers):
                allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                rels = [
                    frozenset(encode(factors, p) for p in r.pairs)
                    for r in ego.relations_for(i, j)
                ]
                assert len(set(rels)) == len(rels)
                for r in rels:
                    assert r <= allowed
                    assert frozenset(subuniverse_closure(square, r)) == r
                    assert not any(r < t for t in rels)
                    for e in allowed - r:
                        # sg(r + e) holds sg(e), so a principal escape suffices
                        if principal[e] <= allowed:
                            assert not set(subuniverse_closure(square, r | {e})) <= allowed
        if n == 8:
            assert len(ego.relations) == 383


class TestLeqMask:
    def test_matches_encoded_pairs(self):
        # two sorts of different sizes, every ordered carrier pair
        gens = [DM.algebra, K3.algebra]
        carriers = [c for m in gens for c in carriers_of(m, DM.spec)]
        for w1, w2 in itertools.product(carriers, carriers):
            factors = [w1.sort, w2.sort]
            square = direct_product(factors)
            bits = {x for x in range(square.size) if leq_mask(w1, w2) >> x & 1}
            assert bits == {encode(factors, p) for p in leq_sublattice(w1, w2)}


class TestAlterEgo:
    def test_two_sorts_match_per_pair_search(self):
        # the search set-up is shared per pair of sorts; each carrier pair
        # must still get the relations of its own square and allowed set
        gens = [DM.algebra, K3.algebra]
        omega = [c for m in gens for c in carriers_of(m, DM.spec)]
        ego = build_alter_ego(gens, DM.spec, omega)
        assert len({r.sort1 for r in ego.relations}) == 2
        expected = []
        for i, w1 in enumerate(ego.carriers):
            for j, w2 in enumerate(ego.carriers):
                factors = [w1.sort, w2.sort]
                square = direct_product(factors)
                allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                for s in maximal_subuniverses_in(square, allowed):
                    pairs = tuple(sorted(decode(factors, x) for x in s))
                    expected.append((gens.index(w1.sort), gens.index(w2.sort), i, j, pairs))
        assert [
            (r.sort1, r.sort2, r.omega1, r.omega2, r.pairs) for r in ego.relations
        ] == expected

    def test_demorgan_ego(self):
        ego = build_alter_ego([DM.algebra], DM.spec)
        assert len(ego.sorts) == 1 and len(ego.carriers) == 1
        assert len(ego.relations) == 1
        assert ego.relations[0].pairs == tuple(sorted(DM_R))
        assert [g.map for g in ego.operations] == [(0, 1, 2, 3), (0, 2, 1, 3)]

    def test_kleene_ego_four_singleton_relations(self):
        ego = build_alter_ego([K3.algebra], K3.spec)
        sizes = relation_sizes(ego)
        assert sizes == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_bool2_relation_is_order(self):
        ego = build_alter_ego([B2.algebra], B2.spec)
        assert ego.relations[0].pairs == ((0, 0), (0, 1), (1, 1))

    def test_separation_failure_raises(self):
        w1 = carrier_from_filter(K3.algebra, K3.spec, {1, 2})
        with pytest.raises(SeparationError) as exc:
            build_alter_ego([K3.algebra], K3.spec, [w1])
        assert exc.value.witness == sep_condition([K3.algebra], [w1]).witness

    @pytest.mark.parametrize("keys", SEARCH_INPUTS)
    def test_keeps_the_search_certificate(self, keys):
        gens, spec = generators_of(keys)
        ego = build_alter_ego(gens, spec)
        assert (ego.carriers, ego.minimality) == minimal_omega_certified(gens, spec)

    def test_given_omega_has_no_certificate(self):
        searched = build_alter_ego([K3.algebra], K3.spec)
        given = build_alter_ego([K3.algebra], K3.spec, carriers_of(K3.algebra, K3.spec))
        assert searched.minimality is not None and given.minimality is None
        assert given != searched  # one ego is equal only to itself
        assert (given.sorts, given.carriers, given.relations, given.operations) == (
            searched.sorts, searched.carriers, searched.relations, searched.operations
        )

    def test_reads_the_kept_hom_sets(self, monkeypatch):
        # a planted End(demorgan4) without the negation leaves G the
        # identity, and one carrier no longer separates
        dm = fresh_entry("demorgan4").algebra
        identity = hom_enumerate(dm, dm)[0]
        dm._homs[dm] = [identity]
        assert len(build_alter_ego([DM.algebra], DM.spec).carriers) == 1
        monkeypatch.setattr(algebra_module, "hom_enumerate", None)
        ego = AlterEgo([dm], DM.spec)
        assert ego.operations == (identity,) and identity.map == (0, 1, 2, 3)
        assert len(ego.carriers) == 2

    def test_enumerates_each_hom_set_once(self, monkeypatch):
        # the separation check and G read one enumeration per ordered pair;
        # the carriers are found on the catalog's copies, value-equal sorts
        omega = minimal_omega_certified([DM.algebra, K3.algebra], DM.spec)[0]
        gens = [fresh_entry(c).algebra for c in ("demorgan4", "kleene3")]
        pairs = count_hom_enumerations(monkeypatch)
        ego = build_alter_ego(gens, DM.spec, omega)
        names = [m.name for m in gens]
        assert pairs == list(itertools.product(names, names))
        assert ego.operations == tuple(
            h for m1 in gens for m2 in gens for h in hom_enumerate(m1, m2)
        )

    @pytest.mark.parametrize(
        "entry", [e for e, _ in table1_suite()] + [make_id(i) for i in LADDER_IDS], ids=lambda e: e.key
    )
    def test_report_listing_matches_the_alter_ego(self, entry):
        # the classification's one ego lists, pair by pair, what a built
        # alter ego on its sorts and carriers holds, and its root classes
        # are the listed counts capped at 2
        report = flowchart_classify([entry.algebra], entry.spec, size_cap=20)
        built = build_alter_ego(report.ego.sorts, entry.spec, report.omega)
        assert list(report.listing) == list(built.pairs())
        for (i, j), listed in report.listing.items():
            assert listed == built.relations_for(i, j)
            assert report.ego.root_class(i, j) == min(len(listed), 2)


class TestUniqueMaxApplicable:
    @pytest.mark.parametrize(
        "key,params,expected",
        [
            ("demorgan4", (), True),
            ("kleene3", (), True),
            ("heyting_chain", (3,), False),
            ("moisil_M", (3,), True),
            ("moisil_L", (3,), True),
            ("pseudo_b", (1,), True),
            ("pseudo_b", (2,), False),
            ("mv_chain", (1,), True),
            ("mv_chain", (2,), False),
            ("pre_moisil_L0", (3,), True),
            ("pre_moisil_M0", (2,), True),
            ("bool2", (), True),
        ],
    )
    def test_catalog_values(self, key, params, expected):
        entry = make(key, *params)
        assert unique_max_applicable(entry.algebra, entry.spec) is expected

    def test_implies_singleton_relations(self):
        # when it applies and the unary operations respect the bounds, every
        # relation set has exactly one element
        for key, params in [
            ("demorgan4", ()), ("kleene3", ()), ("moisil_M", (3,)),
            ("moisil_L", (3,)), ("pre_moisil_L0", (2,)), ("bool2", ()),
            ("mv_chain", (1,)), ("pseudo_b", (1,)),
        ]:
            entry = make(key, *params)
            assert unique_max_applicable(entry.algebra, entry.spec)
            assert bounds_preserved(entry.algebra, entry.spec)
            ego = build_alter_ego([entry.algebra], entry.spec)
            assert all(v == 1 for v in relation_sizes(ego).values())

    @pytest.mark.parametrize("key, params", [
        (key, params) for key, params in ROOT_CLASS_ALGEBRAS
        if unique_max_applicable(make(key, *params).algebra, make(key, *params).spec)
    ], ids=lambda v: str(v))
    def test_implies_root_class_at_most_one(self, key, params):
        entry = make(key, *params)
        m = entry.algebra
        root_class = piggyback._relation_search(direct_product([m, m]), m.size).root_class
        for w1, w2 in itertools.product(carriers_of(m, entry.spec), repeat=2):
            assert root_class(leq_mask(w1, w2)) <= 1


class TestOrbitCounts:
    def test_pseudocomplemented_partition_counts(self):
        # n**n relations in p(n) orbits, p the partition function
        for n, relations, orbits in [(1, 1, 1), (2, 4, 2), (3, 27, 3), (4, 256, 5)]:
            entry = make("pseudo_b", n)
            ego = build_alter_ego([entry.algebra], entry.spec)
            assert len(ego.relations) == relations
            assert relation_orbit_count(ego, 0, 0) == orbits

    def test_b2_square_against_subuniverse_enumeration(self):
        # independent oracle for the 25-element square: enumerate every
        # subuniverse outright, filter, take maximal ones
        from latcop.algebra import subuniverses

        entry = make("pseudo_b", 2)
        factors = [entry.algebra, entry.algebra]
        square = direct_product(factors)
        w = carrier_from_filter(entry.algebra, entry.spec, {4})
        allowed = frozenset(encode(factors, p) for p in leq_sublattice(w, w))
        inside = [s for s in subuniverses(square) if s <= allowed]
        maximal = sorted(
            {s for s in inside if not any(s < t for t in inside)}, key=sorted
        )
        assert maximal == maximal_subuniverses_in(square, allowed)
        assert len(maximal) == 4

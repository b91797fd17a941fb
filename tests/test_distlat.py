"""Reduct extraction and finite Priestley duality."""

import dataclasses
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LatticeHom,
    PosetMap,
    antichain,
    brute_force_covers,
    brute_force_poset_iso,
    brute_force_upsets,
    breaks_lattice_property,
    chain,
    dual_of_hom,
    filter_value,
    fresh_entry,
    join_irreducibles_by_fold,
    lattice_algebra_from_leq,
    lattice_identity_failure,
    lattice_meet,
    op,
    order_faults,
    poset_disjoint_union,
    poset_isomorphic,
    poset_product,
    priestley_dual_by_inclusion,
    upset_lattice,
    upsets,
)
from latcop import catalog as catalog_module
from latcop import distlat as distlat_module
from latcop.algebra import FiniteAlgebra, Signature, app, term_table, var
from latcop.catalog import _LATTICE_SIG as LATTICE_SIG
from latcop.catalog import make, table1_suite
from latcop.classify import flowchart_classify
from latcop.cli import main as cli_main
from latcop.distlat import (
    DReductSpec,
    FinitePoset,
    d_reduct,
    join_irreducibles,
    poset_from_pairs,
    prime_filters,
    priestley_dual,
)
from latcop.duality import coproduct
from latcop.errors import LatcopError, LatticeAxiomError

DATA = Path(__file__).parent / "data"

DM = make("demorgan4")
K3 = make("kleene3")
MV2 = make("mv_chain", 2)


def small_reducts():
    """Catalog reducts used as a shared sample."""
    out = []
    for entry, _ in table1_suite():
        if entry.algebra.size <= 9:
            out.append((entry.key, d_reduct(entry.algebra, entry.spec)))
    return out


LIT = DReductSpec.literal()


def _counting_validator():
    """A patch of the reduct validator that still validates and records the
    algebra of each call."""
    return mock.patch.object(distlat_module, "_validate", wraps=distlat_module._validate)


def _validated(counter, algebra) -> int:
    return sum(call.args[0] is algebra for call in counter.call_args_list)


class TestDReduct:
    def test_demorgan_diamond(self):
        lat = d_reduct(DM.algebra, DM.spec)
        assert lat.bot == 0 and lat.top == 3
        assert not lat.leq(1, 2) and not lat.leq(2, 1)
        assert lat.leq(0, 1) and lat.leq(1, 3)

    def test_carrier_is_the_algebra_passed(self):
        # equal algebras share no reduct; a rename() copy reuses the one
        # kept with its original, with itself as the carrier
        for entry in (DM, K3, MV2):
            with _counting_validator() as counter:
                copy = dataclasses.replace(entry.algebra)
                assert copy == entry.algebra and copy is not entry.algebra
                assert d_reduct(copy, entry.spec).carrier is copy
                assert d_reduct(copy, entry.spec).carrier is copy
                assert d_reduct(entry.algebra, entry.spec).carrier is entry.algebra
                renamed = entry.algebra.rename("renamed")
                lat = d_reduct(renamed, entry.spec)
                assert lat.carrier is renamed
                assert lat.leq_rows == d_reduct(entry.algebra, entry.spec).leq_rows
            assert [call.args[0] for call in counter.call_args_list] == [copy]

    def test_kept_reduct_is_linear(self):
        # the reduct keeps n rows of n bits, not its n^2 meet and join
        # tables; term_table builds the algebra's arrays and keeps them for
        # their other readers, so they are built before measuring; its
        # argument grid is freed when it returns, with no collection run
        entry = fresh_entry("heyting_chain(300)")
        entry.algebra.arrays()
        tracemalloc.start()
        try:
            lat = d_reduct(entry.algebra, entry.spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lat.size == 300 and retained < 300**2 * 4

    def test_join_reads_the_order(self):
        for entry, _ in table1_suite():
            alg, lat = entry.algebra, d_reduct(entry.algebra, entry.spec)
            r = range(alg.size)
            assert tuple(lat.join(x, y) for x in r for y in r) == term_table(alg, entry.spec.join, 2), entry.key

    def test_mv_terms_give_chain(self):
        lat = d_reduct(MV2.algebra, MV2.spec)
        assert all(lat.leq(x, y) == (x <= y) for x in range(3) for y in range(3))

    def test_degenerate_spec_rejected(self):
        # meet = join = x0 reads every pair as x <= y, so rows 0 and 1 agree
        alg = FiniteAlgebra(
            "proj",
            2,
            Signature((("p", 2), ("zero", 0), ("one", 0))),
            ((0, 0, 1, 1), (0,), (1,)),
        )
        spec = DReductSpec(var(0), var(0), app("zero"), app("one"))
        with pytest.raises(LatticeAxiomError) as exc:
            d_reduct(alg, spec)
        assert (exc.value.identity, exc.value.witness) == ("meet order antisymmetric", (0, 1))
        assert breaks_lattice_property(alg, spec, exc.value.identity, exc.value.witness)
        assert lattice_identity_failure(alg, spec) == ("meet commutativity", (0, 1))

    def test_axiom_error_reports_witness(self):
        alg = FiniteAlgebra(
            "proj2",
            2,
            Signature((("meet", 2), ("join", 2), ("zero", 0), ("one", 0))),
            ((0, 0, 1, 1), (0, 0, 1, 1), (0,), (1,)),  # meet = join = first arg
        )
        with pytest.raises(LatticeAxiomError) as exc:
            d_reduct(alg, DReductSpec.literal())
        assert exc.value.witness is not None


class TestValidateOnce:
    def test_make_then_classify_or_coproduct(self):
        for run in (
            lambda e: flowchart_classify([e.algebra], e.spec),
            lambda e: coproduct([e.algebra], e.spec, None, [e.algebra, e.algebra]),
        ):
            with _counting_validator() as counter:
                entry = catalog_module.make.__wrapped__("kleene3")  # a fresh, uncached entry
                run(entry)
            assert _validated(counter, entry.algebra) == 1

    def test_alg_file_then_classify(self, capsys):
        with _counting_validator() as counter:
            assert cli_main(["classify", str(DATA / "demorgan4.alg")]) == 0
        parsed = [call.args[0] for call in counter.call_args_list if call.args[0].name == "demorgan4"]
        assert len(parsed) == 1

    def test_a_failed_validation_is_not_kept(self):
        with _counting_validator() as counter:
            for _ in range(2):
                with pytest.raises(LatticeAxiomError):
                    d_reduct(_M3, LIT)
        assert _validated(counter, _M3) == 2


def _tournament_lattice(draw) -> FiniteAlgebra:
    """A bottom and a top around a random tournament, meet and join its min
    and max, on shuffled labels: commutative and absorptive, associative
    only when the tournament is transitive."""
    k = draw(st.integers(1, 5))
    above = {(a, b) if draw(st.booleans()) else (b, a) for a, b in itertools.combinations(range(k), 2)}
    label = draw(st.permutations(range(k + 2)))  # label[0] bottom, label[k + 1] top

    def leq(a: int, b: int) -> bool:  # a, b in 0..k+1, tournament members 1..k
        return a == b or a == 0 or b == k + 1 or (a - 1, b - 1) in above

    n = k + 2
    inv = {label[a]: a for a in range(n)}
    meet = tuple(label[a if leq(a, b) else b] for x in range(n) for y in range(n) for a, b in [(inv[x], inv[y])])
    join = tuple(label[b if leq(a, b) else a] for x in range(n) for y in range(n) for a, b in [(inv[x], inv[y])])
    return FiniteAlgebra("tournament", n, LATTICE_SIG, (meet, join, (label[0],), (label[k + 1],)))


def _random_tables(draw) -> FiniteAlgebra:
    """Random meet and join tables on 1-5 elements and random bounds; half
    of the time both are made idempotent, and half of the time commutative,
    so that later properties get tested too."""
    n = draw(st.integers(1, 5))
    value = st.integers(0, n - 1)
    tables = [draw(st.lists(value, min_size=n * n, max_size=n * n)) for _ in range(2)]
    if draw(st.booleans()):
        for t in tables:
            for x in range(n):
                t[x * n + x] = x
    if draw(st.booleans()):
        for t in tables:
            for x, y in itertools.combinations(range(n), 2):
                t[y * n + x] = t[x * n + y]
    return FiniteAlgebra("random", n, LATTICE_SIG, (*map(tuple, tables), (draw(value),), (draw(value),)))


_N5 = lattice_algebra_from_leq(5, lambda a, b: a == b or a == 0 or b == 4 or (a, b) == (1, 3), "n5")
_M3 = lattice_algebra_from_leq(5, lambda a, b: a == b or a == 0 or b == 4, "m3")


@st.composite
def reduct_candidates(draw) -> FiniteAlgebra:
    """A tournament lattice, random tables, N5, M3 or the up-set lattice of
    a poset on at most 3 points, then half of the time one table entry or a
    bound changed: on a distributive lattice, a changed entry that keeps the
    order breaks only the glb or the lub."""
    kind = draw(st.sampled_from(["tournament", "random", "n5", "m3", "upsets"]))
    if kind == "tournament":
        alg = _tournament_lattice(draw)
    elif kind == "random":
        alg = _random_tables(draw)
    elif kind == "upsets":
        alg = upset_lattice(draw(st.integers(0, 3).flatmap(posets))).carrier
    else:
        alg = {"n5": _N5, "m3": _M3}[kind]
    if draw(st.booleans()):
        n = alg.size
        tables = [list(t) for t in alg.tables]
        t = tables[draw(st.integers(0, 3))]
        t[draw(st.integers(0, len(t) - 1))] = draw(st.integers(0, n - 1))
        alg = FiniteAlgebra("mutated", n, LATTICE_SIG, tuple(map(tuple, tables)))
    return alg


class TestIdentityScanOracle:
    @settings(max_examples=500, deadline=None)
    @given(reduct_candidates())
    def test_rejects_exactly_what_the_identity_scan_rejects(self, alg):
        want = lattice_identity_failure(alg, LIT)
        try:
            lat = d_reduct(alg, LIT)
        except LatticeAxiomError as exc:
            assert want is not None
            assert breaks_lattice_property(alg, LIT, exc.identity, exc.witness), (exc.identity, exc.witness)
            return
        assert want is None
        r = range(alg.size)
        assert lat.leq_rows == tuple(sum(1 << y for y in r if op(alg, "meet", (x, y)) == x) for x in r)
        assert join_irreducibles(lat) == join_irreducibles_by_fold(lat)
        assert priestley_dual(lat) == priestley_dual_by_inclusion(lat)

    def test_non_distributive_lattices(self):
        # a join-irreducible below x v y but below neither is the witness
        for alg in (_N5, _M3):
            with pytest.raises(LatticeAxiomError) as exc:
                d_reduct(alg, LIT)
            assert exc.value.identity == "distributivity"
            assert breaks_lattice_property(alg, LIT, exc.value.identity, exc.value.witness)
            assert lattice_identity_failure(alg, LIT)[0] == "distributivity"

    def test_catalog_reducts(self):
        for entry, _ in table1_suite():
            if entry.algebra.size <= 9:
                lat = d_reduct(entry.algebra, entry.spec)
                assert lattice_identity_failure(entry.algebra, entry.spec) is None, entry.key
                assert join_irreducibles(lat) == join_irreducibles_by_fold(lat), entry.key
                assert priestley_dual(lat) == priestley_dual_by_inclusion(lat), entry.key


class TestPrimeFilters:
    def test_chain_count(self):
        for k in (1, 2, 3, 4, 6):
            lat = d_reduct(make("mv_chain", k).algebra, make("mv_chain", k).spec)
            pfs = prime_filters(lat)
            assert len(pfs) == k
            # linearly ordered by inclusion
            chain_sets = sorted((f.elements for f in pfs), key=len)
            assert all(a <= b for a, b in zip(chain_sets, chain_sets[1:]))

    def test_demorgan_two_filters(self):
        lat = d_reduct(DM.algebra, DM.spec)
        pfs = prime_filters(lat)
        assert [f.elements for f in pfs] == [frozenset({1, 3}), frozenset({2, 3})]

    def test_brute_force_demorgan(self):
        lat = d_reduct(DM.algebra, DM.spec)
        brute = []
        for size in range(1, 5):
            for sub in itertools.combinations(range(4), size):
                s = set(sub)
                proper = lat.bot not in s and lat.top in s
                up = all(y in s for x in s for y in range(4) if lat.leq(x, y))
                meet = all(lattice_meet(lat, x, y) in s for x in s for y in s)
                prime = all(
                    (x in s or y in s)
                    for x in range(4)
                    for y in range(4)
                    if lat.join(x, y) in s
                )
                if proper and up and meet and prime:
                    brute.append(frozenset(s))
        assert sorted(brute, key=sorted) == sorted(
            (f.elements for f in prime_filters(lat)), key=sorted
        )

    def test_one_element_lattice(self):
        one = lattice_algebra_from_leq(1, lambda a, b: True, "one")
        assert prime_filters(d_reduct(one, DReductSpec.literal())) == []

    def test_filters_carry_their_sort(self):
        # a prime filter is also the piggyback carrier map U(sort) -> 2
        lat = d_reduct(K3.algebra, K3.spec)
        pfs = prime_filters(lat)
        assert all(f.sort is lat.carrier for f in pfs)
        assert [f.label() for f in pfs] == ["{a,1}", "{1}"]
        assert repr(pfs[1]) == "PrimeFilter('kleene3', {1})"
        assert [[filter_value(f, x) for x in range(3)] for f in pfs] == [[0, 1, 1], [0, 0, 1]]

    def test_join_irreducibles_count_matches(self):
        for key, lat in small_reducts():
            assert len(prime_filters(lat)) == len(join_irreducibles(lat))


class TestPriestleyDual:
    def test_boolean_16_gives_antichain(self):
        lat = upset_lattice(antichain(4))
        assert lat.size == 16
        dual = priestley_dual(lat)
        assert dual.size == 4
        assert poset_isomorphic(dual, antichain(4)) is not None

    def test_dual_of_identity(self):
        lat = d_reduct(DM.algebra, DM.spec)
        ident = LatticeHom(lat, lat, tuple(range(4)))
        dmap = dual_of_hom(ident)
        assert dmap.map == tuple(range(dmap.source.size))

    def test_dual_of_inclusion_is_surjective(self):
        two = d_reduct(make("bool2").algebra, make("bool2").spec)
        lat = d_reduct(DM.algebra, DM.spec)
        incl = LatticeHom(two, lat, (0, 3))
        dmap = dual_of_hom(incl)
        assert dmap.source.size == 2 and dmap.target.size == 1
        assert dmap.is_surjective

    def test_strong_duality_on_sampled_homs(self):
        # injective hom -> surjective dual; surjective hom -> order embedding
        k = d_reduct(K3.algebra, K3.spec)
        dm = d_reduct(DM.algebra, DM.spec)
        incl = LatticeHom(k, dm, (0, 1, 3))
        d1 = dual_of_hom(incl)
        assert incl.is_injective and d1.is_surjective
        two = d_reduct(make("bool2").algebra, make("bool2").spec)
        collapse = LatticeHom(dm, two, (0, 0, 1, 1))  # kill a, send b to top
        d2 = dual_of_hom(collapse)
        assert collapse.is_surjective and d2.is_order_embedding


class TestUpsetLattice:
    def test_antichain2_gives_diamond(self):
        lat = upset_lattice(antichain(2))
        assert lat.size == 4
        assert poset_isomorphic(priestley_dual(lat), antichain(2)) is not None

    def test_chain2_gives_chain3(self):
        lat = upset_lattice(chain(2))
        assert lat.size == 3

    def test_round_trip_all_catalog(self):
        from latcop.algebra import isomorphic

        for key, lat in small_reducts():
            back = upset_lattice(priestley_dual(lat))
            # compare as pure bounded lattices
            orig = lattice_algebra_from_leq(
                lat.size, lat.leq, "orig"
            )
            assert isomorphic(orig, back.carrier.rename("orig")) is not None, key


class TestHMapsCoproductsToProducts:
    def test_pairs_of_catalog_reducts(self):
        # the lattice coproduct is the up-set lattice of the product of the
        # dual posets; its dual must be that product, and the canonical maps
        # from both factors must be injective lattice homomorphisms
        reducts = [lat for _, lat in small_reducts()]
        for l1, l2 in itertools.product(reducts[:6], repeat=2):
            p1, p2 = priestley_dual(l1), priestley_dual(l2)
            if p1.size * p2.size > 64 or p1.size * p2.size == 0:
                continue
            prod = poset_product(p1, p2)
            if len(upsets(prod)) > 200:
                continue  # the b3-square coproduct has 1194 elements
            cop = upset_lattice(prod)
            dual = priestley_dual(cop)
            assert poset_isomorphic(dual, prod) is not None
            ups = cop.carrier.element_names  # up-sets as labels, order-aligned
            index = {u: i for i, u in enumerate(upsets(prod))}
            pfs1 = prime_filters(l1)
            for side, (lat, pfs, stride) in enumerate(
                [(l1, pfs1, p2.size), (l2, prime_filters(l2), 1)]
            ):
                def canon(a: int) -> int:
                    hit = set()
                    for u in range(p1.size):
                        for v in range(p2.size):
                            f = pfs[u] if side == 0 else pfs[v]
                            if a in f.elements:
                                hit.add(u * p2.size + v)
                    return index[frozenset(hit)]

                hom = LatticeHom(lat, cop, tuple(canon(a) for a in range(lat.size)))
                assert hom.is_injective

    def test_product_dual_is_disjoint_union(self):
        # the dual of a product lattice is the disjoint union of the duals
        l1 = d_reduct(DM.algebra, DM.spec)
        l2 = d_reduct(K3.algebra, K3.spec)

        prod_lat = lattice_algebra_from_leq(
            12,
            lambda x, y: l1.leq(x // 3, y // 3) and l2.leq(x % 3, y % 3),
            "prodlat",
        )
        dual = priestley_dual(d_reduct(prod_lat, DReductSpec.literal()))
        expected = poset_disjoint_union(priestley_dual(l1), priestley_dual(l2))
        assert poset_isomorphic(dual, expected) is not None


@st.composite
def posets(draw, size):
    """A random poset on ``size`` points: the transitive closure of random
    pairs i < j, relabeled by a random permutation."""
    rows = [1 << x for x in range(size)]
    point = st.integers(0, max(size - 1, 0))
    for i, j in draw(st.sets(st.tuples(point, point))) if size else ():
        if i < j:
            rows[i] |= 1 << j
    for k in range(size):
        for i in range(size):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    perm = draw(st.permutations(range(size)))
    pairs = {(perm[i], perm[j]) for i in range(size) for j in range(size) if rows[i] >> j & 1}
    return poset_from_pairs(size, pairs)


@st.composite
def poset_pairs(draw):
    """Two posets on at most 6 points; half of the time q relabels p."""
    size = draw(st.integers(min_value=0, max_value=6))
    p = draw(posets(size))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(size)))
        pairs = {(perm[x], perm[y]) for x in range(size) for y in range(size) if p.leq(x, y)}
        return p, poset_from_pairs(size, pairs)
    return p, draw(posets(size))


@st.composite
def relations(draw):
    """Random rows on 1-5 points; half of the time reflexive."""
    size = draw(st.integers(1, 5))
    rows = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
    if draw(st.booleans()):
        rows = [row | 1 << x for x, row in enumerate(rows)]
    return size, tuple(rows)


class TestOrderCheck:
    @pytest.mark.parametrize("rows,axiom", [
        ((0b00, 0b10), "reflexive"),
        ((0b11, 0b11), "antisymmetric"),
        ((0b011, 0b110, 0b100), "transitive"),  # 0 <= 1 <= 2, but not 0 <= 2
    ])
    def test_one_broken_axiom_is_named(self, rows, axiom):
        assert order_faults(len(rows), rows) == {axiom}
        with pytest.raises(LatcopError, match=f"must be {axiom}"):
            FinitePoset(len(rows), rows, ("p",) * len(rows))

    @pytest.mark.parametrize("size,rows", [(2, (0b101, 0b10)), (2, (0b01,)), (1, (-1,))])
    def test_rows_past_the_points_are_rejected(self, size, rows):
        with pytest.raises(LatcopError, match="rows over the points"):
            FinitePoset(size, rows, ("p",) * size)

    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
    def test_a_label_count_other_than_the_size_is_rejected(self, labels):
        with pytest.raises(LatcopError, match=f"poset needs 2 labels, got {len(labels)}"):
            FinitePoset(2, (0b11, 0b10), labels)

    @settings(max_examples=300, deadline=None)
    @given(relations())
    def test_matches_the_axiom_scan(self, case):
        size, rows = case
        faults = order_faults(size, rows)
        if not faults:
            FinitePoset(size, rows, ("p",) * size)
            return
        with pytest.raises(LatcopError) as exc:
            FinitePoset(size, rows, ("p",) * size)
        if len(faults) == 1:
            assert str(exc.value) == f"poset order must be {faults.pop()}"

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=8).flatmap(posets))
    def test_covers_match_the_triple_scan(self, p):
        assert p.covers() == brute_force_covers(p)


class TestMaps:
    def test_poset_map_must_be_monotone(self):
        c2 = chain(2)
        assert PosetMap(c2, c2, (0, 1)).is_bijective
        assert PosetMap(c2, c2, (1, 1)).is_surjective is False
        with pytest.raises(LatcopError, match="order-preserving"):
            PosetMap(c2, c2, (1, 0))
        with pytest.raises(LatcopError, match="order-preserving"):
            PosetMap(c2, antichain(2), (0, 1))

    @pytest.mark.parametrize("image", [
        (0, 0),  # constant: meets and joins hold, the top moves
        (0, 1, 1, 1),  # a ^ b = 0 goes to 0, but a and b go to 1
        (0, 0, 0, 1),  # a v b = 1 goes to 1, but a and b go to 0
    ], ids=["top", "meet", "join"])
    def test_lattice_hom_must_preserve_bounds_meet_and_join(self, image):
        two = d_reduct(make("bool2").algebra, make("bool2").spec)
        source = two if len(image) == 2 else d_reduct(DM.algebra, DM.spec)
        with pytest.raises(LatcopError, match="not a bounded-lattice homomorphism"):
            LatticeHom(source, two, image)

    def test_lattice_hom_accepts_a_homomorphism(self):
        lat = d_reduct(DM.algebra, DM.spec)
        two = d_reduct(make("bool2").algebra, make("bool2").spec)
        assert LatticeHom(lat, two, (0, 1, 0, 1)).is_surjective
        assert LatticeHom(two, lat, (0, 3)).is_injective


class TestUpsets:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=8).flatmap(posets))
    def test_matches_subset_enumeration(self, p):
        assert upsets(p) == brute_force_upsets(p)


class TestPosetIsomorphic:
    @settings(max_examples=300, deadline=None)
    @given(poset_pairs())
    def test_matches_permutation_scan(self, pair):
        p, q = pair
        assert poset_isomorphic(p, q) == brute_force_poset_iso(p, q)

    def test_self(self):
        p = poset_product(chain(2), antichain(2))
        assert poset_isomorphic(p, p) == tuple(range(p.size))

    def test_chain_vs_antichain(self):
        assert poset_isomorphic(chain(2), antichain(2)) is None

    def test_antichain_vs_boolean_dual(self):
        dual = priestley_dual(upset_lattice(antichain(4)))
        assert poset_isomorphic(antichain(4), dual) is not None


class TestDot:
    def test_hasse_edges_are_covers(self):
        p = chain(3)
        dot = p.to_dot("c3")
        assert "n0 -> n1" in dot and "n1 -> n2" in dot and "n0 -> n2" not in dot

"""Core finite-algebra machinery against small known cases and oracles."""

import dataclasses
import itertools
import random
import time
import tracemalloc
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Congruence,
    IncompatiblePartition,
    all_partitions,
    block_sets,
    brute_force_homs,
    compatible_blocks,
    compose,
    congruence_generated,
    decode,
    encode,
    eval_term,
    inverse,
    is_bijective,
    is_hom_by_loop,
    is_rel_subdirectly_irreducible,
    kernel,
    least_injective_hom,
    median_chain,
    one_element,
    op,
    pointwise_closure,
    pointwise_tables,
    product_by_subpower,
    quotient,
    relative_congruences,
    rsi_by_definition,
    symmetric_by_slices,
    universal_by_closure,
)
from latcop import algebra as algebra_module
from latcop.algebra import (
    DEFAULT_POINTS_CAP,
    FIGURE_CEILING,
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _extends_to_hom,
    _index_dtype,
    _subpower,
    app,
    direct_product,
    embeds,
    free_algebra,
    hom_enumerate,
    hom_set,
    in_isp,
    induced_subalgebra,
    isomorphic,
    subuniverse_closure,
    subuniverses,
    term_table,
    var,
)
from latcop.catalog import make, make_id
from latcop.algfile import parse_algebra_file
from latcop.distlat import DReductSpec, d_reduct
from latcop.duality import coproduct, e_functor
from latcop.errors import (
    CapExceeded,
    InternalError,
    LatcopError,
    MembershipError,
    SignatureMismatch,
    UnknownSymbol,
)

K3 = make("kleene3").algebra
DM4 = make("demorgan4").algebra
C3 = make("heyting_chain", 3).algebra
MED3 = median_chain()
MV2 = make("mv_chain", 2).algebra
# kleene3 with join replaced by the left projection, which is not commutative
LEFT_JOIN_K3 = FiniteAlgebra("K3'", 3, K3.signature, tuple(
    tuple(x for x in range(3) for _ in range(3)) if sym == "join" else tab for sym, _, tab in K3.ops()
))
B2 = make("pseudo_b", 2).algebra


class TestOps:
    def test_built_once_and_not_a_field(self):
        a = make("kleene3").algebra
        assert a.ops() is a.ops()
        assert a.ops() == tuple(
            (sym, arity, tab) for (sym, arity), tab in zip(a.signature.symbols, a.tables)
        )
        assert a == K3 and hash(a) == hash(K3) and repr(a) == repr(K3)

    def test_symmetric_built_once_and_not_a_field(self):
        a = dataclasses.replace(C3)  # a fresh copy: catalog algebras are shared
        assert "_symmetric" not in a.__dict__  # built on first use
        flags = a.symmetric()
        assert a.symmetric() is flags
        # meet and join commute, imp does not, nullary symbols are not binary
        assert flags == (True, True, False, False, False)
        assert a == C3 and hash(a) == hash(C3) and repr(a) == repr(C3)
        assert make("mv_chain", 3).algebra.symmetric() == (True, False, False)

    def test_rename_is_a_shallow_copy(self):
        for a in (K3, C3, direct_product([K3, K3])):
            # the tables were validated once; renaming does not scan them again
            with mock.patch.object(
                algebra_module.FiniteAlgebra, "__post_init__", side_effect=AssertionError
            ):
                b = a.rename("renamed")
            assert b == dataclasses.replace(a, name="renamed")
            assert hash(b) == hash(dataclasses.replace(a, name="renamed"))
            assert b.tables is a.tables and b.ops() is a.ops()
            assert a.name != "renamed"

    def test_rename_copy_keeps_its_own_hom_sets(self):
        # the reduct is shared, the hom-sets are not: each kept map names
        # its source, so the copy's name the copy
        a = dataclasses.replace(DM4)
        ends = hom_set(a, a)
        assert hom_set(a, a) is ends and all(h.source is a for h in ends)
        b = a.rename("renamed")
        assert b._reducts is a._reducts and b._homs == {}
        got = hom_set(b, a)
        assert [h.map for h in got] == [h.map for h in ends]
        assert all(h.source is b and h.source.name == "renamed" for h in got)
        assert a._homs == {a: ends}


class TestEvalTerm:
    def test_kleene_negation_fixpoint(self):
        assert eval_term(K3, app("neg", var(0)), (1,)) == 1

    def test_variable(self):
        for e in range(DM4.size):
            assert eval_term(DM4, var(0), (e,)) == e

    def test_mv_join_term(self):
        t = app("oplus", app("neg", app("oplus", app("neg", var(0)), var(1))), var(1))
        assert eval_term(MV2, t, (2, 1)) == 2

    def test_unknown_symbol(self):
        with pytest.raises(LatcopError):
            eval_term(K3, app("bogus", var(0)), (0,))

    def test_argument_out_of_range(self):
        with pytest.raises(LatcopError):
            eval_term(K3, var(0), (7,))


_TERM_SIG = Signature((("c", 0), ("u", 1), ("b", 2), ("t", 3)))


@st.composite
def algebra_term_arity(draw):
    """A random algebra over nullary to ternary symbols, an arity 0-3 and a
    term in that many variables."""
    n = draw(st.integers(1, 4))
    tables = tuple(
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for _, k in _TERM_SIG.symbols
    )
    arity = draw(st.integers(0, 3))
    leaves = [app("c")] + [var(i) for i in range(arity)]
    terms = st.recursive(
        st.sampled_from(leaves),
        lambda sub: st.one_of(
            st.builds(lambda x: app("u", x), sub),
            st.builds(lambda x, y: app("b", x, y), sub, sub),
            st.builds(lambda x, y, z: app("t", x, y, z), sub, sub, sub),
        ),
        max_leaves=12,
    )
    return FiniteAlgebra("rand", n, _TERM_SIG, tables), draw(terms), arity


@st.composite
def term_signature_algebras(draw):
    """A random algebra of 1-4 elements over a nonempty subset of the
    nullary to ternary symbols of ``_TERM_SIG``."""
    sig = Signature(tuple(draw(st.lists(st.sampled_from(_TERM_SIG.symbols), min_size=1, unique=True))))
    n = draw(st.integers(1, 4))
    return FiniteAlgebra("rand", n, sig, tuple(
        tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
        for _, k in sig.symbols
    ))


class TestTermTable:
    @settings(max_examples=150, deadline=None)
    @given(algebra_term_arity())
    def test_matches_per_tuple_evaluation(self, case):
        alg, term, arity = case
        assert term_table(alg, term, arity) == tuple(
            eval_term(alg, term, args)
            for args in itertools.product(range(alg.size), repeat=arity)
        )

    def test_mv_meet_term(self):
        # the catalog's composite MV meet is the chain's min
        spec = make("mv_chain", 4).spec
        mv4 = make("mv_chain", 4).algebra
        assert term_table(mv4, spec.meet, 2) == tuple(min(x, y) for x in range(5) for y in range(5))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol, match="symbol 'bogus' not in signature"):
            term_table(K3, app("bogus", var(0)), 1)

    @pytest.mark.parametrize("arity", [0, 1, 2])
    def test_variable_past_the_arity(self, arity):
        with pytest.raises(LatcopError, match=f"term uses x{arity} but only {arity} arguments given"):
            term_table(K3, app("neg", var(arity)), arity)


class TestHomEnumerate:
    def test_demorgan_endos(self):
        maps = [h.map for h in hom_enumerate(DM4, DM4)]
        assert maps == [(0, 1, 2, 3), (0, 2, 1, 3)]

    def test_kleene_endos(self):
        assert [h.map for h in hom_enumerate(K3, K3)] == [(0, 1, 2)]

    def test_identity_present_everywhere(self):
        for alg in (K3, DM4, C3, MV2, B2):
            assert tuple(range(alg.size)) in {h.map for h in hom_enumerate(alg, alg)}

    def test_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            hom_enumerate(K3, C3)

    def test_map_budget(self, monkeypatch):
        # End(heyting_chain(8)) has 64 maps; a hom-set stopped at the
        # budget is not kept, so the next read enumerates again
        m = dataclasses.replace(make("heyting_chain", 8).algebra)
        monkeypatch.setattr(algebra_module, "HOM_MAP_BUDGET", 63)
        with pytest.raises(CapExceeded) as exc:
            hom_set(m, m)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("hom enumeration", 63, 64)
        assert str(exc.value) == "hom(heyting_chain8, heyting_chain8) has more than 63 maps"
        assert m._homs == {}
        monkeypatch.setattr(algebra_module, "HOM_MAP_BUDGET", 64)
        assert len(hom_set(m, m)) == 64

    @pytest.mark.parametrize(
        "a,b",
        [
            (K3, K3),
            (K3, DM4),
            (DM4, K3),
            (DM4, DM4),
            (C3, C3),
            (C3, make("heyting_chain", 4).algebra),
            (make("heyting_chain", 4).algebra, C3),
            (B2, make("pseudo_b", 1).algebra),
            (make("pseudo_b", 1).algebra, B2),
            (MV2, make("mv_chain", 6).algebra),
        ],
    )
    def test_matches_brute_force(self, a, b):
        assert [h.map for h in hom_enumerate(a, b)] == brute_force_homs(a, b)
        for h in hom_enumerate(a, b):
            assert h.is_valid()

    def test_chain_longer_than_the_recursion_limit(self):
        # the 1100-element Heyting chain, built without catalog.make, whose
        # cubic lattice check would dominate; a threshold map at k > 1
        # breaks x -> y for y < x < k, so only the threshold at 1 is left
        n = 1100
        two = make("heyting_chain", 2).algebra
        r = range(n)
        chain = FiniteAlgebra("heyting_chain1100", n, two.signature, (
            tuple(min(x, y) for x in r for y in r),
            tuple(max(x, y) for x in r for y in r),
            tuple(n - 1 if x <= y else y for x in r for y in r),
            (0,),
            (n - 1,),
        ))
        assert [h.map for h in hom_enumerate(chain, two)] == [(0,) + (1,) * (n - 1)]


def _relabeled(alg: FiniteAlgebra, perm) -> FiniteAlgebra:
    """The copy of alg in which element x is called perm[x]."""
    tables = []
    for (_, arity), tab in zip(alg.signature.symbols, alg.tables):
        tables.append(tuple(
            perm[tab[alg.flat_index([perm.index(x) for x in args])]]
            for args in itertools.product(range(alg.size), repeat=arity)
        ))
    return FiniteAlgebra(alg.name + "'", alg.size, alg.signature, tuple(tables))


@st.composite
def algebra_pairs(draw):
    """Two algebras of 1-5 elements with a unary, a binary and an optional
    nullary operation; half of the time b is a relabeled copy of a."""
    symbols = (("f", 1), ("g", 2)) + ((("c", 0),) if draw(st.booleans()) else ())
    sig = Signature(symbols)

    def algebra(name: str) -> FiniteAlgebra:
        n = draw(st.integers(min_value=1, max_value=5))
        return FiniteAlgebra(name, n, sig, tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for _, k in symbols
        ))

    a = algebra("a")
    if draw(st.booleans()):
        return a, _relabeled(a, draw(st.permutations(range(a.size))))
    return a, algebra("b")


def check_map_search(a: FiniteAlgebra, b: FiniteAlgebra) -> None:
    """hom_enumerate, embeds and isomorphic against the brute-force list of
    all homomorphisms."""
    assert [h.map for h in hom_enumerate(a, b)] == brute_force_homs(a, b)
    emb = embeds(a, b)
    assert (None if emb is None else emb.map) == least_injective_hom(a, b)
    iso = isomorphic(a, b)
    exists = a.size == b.size and least_injective_hom(a, b) is not None
    assert (iso is not None) == exists
    if iso is not None:
        assert iso.is_valid() and is_bijective(iso)


@st.composite
def symmetry_pairs(draw):
    """Two algebras of 1-4 elements with a binary and an optional unary
    operation.  Each binary table is drawn symmetric or not, independently,
    so pairs where only one side is symmetric come up often; half of the
    time b is a relabeled copy of a."""
    symbols = (("g", 2),) + ((("f", 1),) if draw(st.booleans()) else ())
    sig = Signature(symbols)

    def algebra(name: str) -> FiniteAlgebra:
        n = draw(st.integers(min_value=1, max_value=4))
        symmetric = draw(st.booleans())
        tables = []
        for _, k in symbols:
            tab = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
            if k == 2 and symmetric:
                tab = [tab[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
            tables.append(tuple(tab))
        return FiniteAlgebra(name, n, sig, tuple(tables))

    a = algebra("a")
    if draw(st.booleans()):
        return a, _relabeled(a, draw(st.permutations(range(a.size))))
    return a, algebra("b")


class TestSymmetricShortcut:
    """The map search skips the column check of a binary symbol only when
    both tables are symmetric, and the closure skips the column read of a
    symmetric table; both are checked against oracles that never skip."""

    @settings(max_examples=300, deadline=None)
    @given(symmetry_pairs())
    def test_map_search_matches_brute_force(self, pair):
        check_map_search(*pair)

    @settings(max_examples=300, deadline=None)
    @given(symmetry_pairs())
    def test_closure_matches_pointwise(self, pair):
        # every seed of at most two elements, in both algebras
        for alg in pair:
            for k in range(3):
                for seed in itertools.combinations(range(alg.size), k):
                    expected = pointwise_closure([alg], [(x,) for x in seed])
                    assert sorted(subuniverse_closure(alg, seed)) == [x for (x,) in expected]


class TestMapSearch:
    """hom_enumerate, embeds and isomorphic share one search; each is
    checked against the brute-force list of all homomorphisms."""

    @settings(max_examples=300, deadline=None)
    @given(algebra_pairs())
    def test_matches_brute_force(self, pair):
        check_map_search(*pair)

    def test_embedding_deeper_than_the_recursion_limit(self):
        n = 1100
        ident = FiniteAlgebra("id1100", n, Signature((("f", 1),)), (tuple(range(n)),))
        assert embeds(ident, ident).map == tuple(range(n))


class TestSubuniverseClosure:
    def test_demorgan_empty_seed(self):
        assert subuniverse_closure(DM4, ()) == frozenset({0, 3})

    def test_kleene_fixpoint_generates_all(self):
        assert subuniverse_closure(K3, (1,)) == frozenset({0, 1, 2})

    def test_heyting_middle(self):
        assert subuniverse_closure(C3, (1,)) == frozenset({0, 1, 2})

    @settings(max_examples=60, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=4), max_size=5))
    def test_idempotent(self, seed):
        seed = {x for x in seed if x < B2.size}
        once = subuniverse_closure(B2, seed)
        assert subuniverse_closure(B2, once) == once

    def test_subuniverses_listing(self):
        subs = subuniverses(K3)
        assert frozenset({0, 2}) in subs and frozenset({0, 1, 2}) in subs
        assert all(subuniverse_closure(K3, s) == s for s in subs)


class TestProductQuotient:
    def test_product_sizes(self):
        assert direct_product([K3, K3]).size == 9

    def test_empty_product(self):
        # a product needs a factor; the one-element algebra is conftest's one_element
        with pytest.raises(LatcopError, match="^a product needs at least one factor$"):
            direct_product([])

    def test_componentwise_negation(self):
        # (a, b) of DM4 x K3 is numbered a * 3 + b, leftmost factor most significant
        p = direct_product([DM4, K3])
        x = encode([DM4, K3], (1, 2))
        assert x == 5
        assert decode([DM4, K3], op(p, "neg", [x])) == (1, 0)
        assert op(p, "neg", [x]) == 3

    def test_cap(self, monkeypatch):
        # 5**20 elements need more than TABLE_ENTRY_BUDGET table entries:
        # raised before any tuple is listed
        def unreachable(*args, **kwargs):
            raise AssertionError("the product was listed")

        monkeypatch.setattr(algebra_module, "_subpower", unreachable)
        with pytest.raises(CapExceeded) as exc:
            direct_product([B2] * 20)
        need = 2 * (5**20) ** 2 + 5**20 + 2  # meet, join, star, zero, one
        assert B2.size**20 == 5**20
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("table build", 10**7, need)
        assert str(exc.value) == f"subpower tables need {need}+ entries, budget is 10000000"

    def test_quotient_by_diagonal(self):
        q, nat = quotient(K3, Congruence.diagonal(3))
        assert q.size == 3 and isomorphic(q, K3) is not None
        assert nat.is_valid()

    def test_quotient_by_all(self):
        q, _ = quotient(K3, Congruence.all(3))
        assert q.size == 1

    def test_incompatible_partition_rejected(self):
        glue_a_top = Congruence.canonical(3, [0, 1, 1])
        with pytest.raises(IncompatiblePartition):
            quotient(K3, glue_a_top)

    def test_block_labels_need_not_be_canonical(self):
        # (1, 1, 1) is the all-relation; (0, 2, 2) glues a and 1 as (0, 1, 1) does
        q, nat = quotient(K3, Congruence((1, 1, 1)))
        assert q.size == 1 and nat.map == (0, 0, 0)
        with pytest.raises(IncompatiblePartition):
            quotient(K3, Congruence((0, 2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(term_signature_algebras())
    def test_matches_block_oracle_on_every_partition(self, alg):
        # quotient checks its natural map; the oracle reads every operation instance
        for raw in all_partitions(alg.size):
            theta = Congruence(raw)
            tables = compatible_blocks(alg, theta)
            if tables is None:
                with pytest.raises(IncompatiblePartition, match="is not compatible with 'rand'"):
                    quotient(alg, theta)
            else:
                q, nat = quotient(alg, theta)
                assert q.tables == tables and nat.map == raw

    @pytest.mark.parametrize("n", range(5))
    def test_meet_is_the_intersection(self, n):
        parts = [Congruence(raw) for raw in all_partitions(n)]
        canonical = {p.blocks for p in parts}
        for a, b in itertools.product(parts, repeat=2):
            m = a.meet(b)
            assert m.blocks in canonical
            for x, y in itertools.product(range(n), repeat=2):
                assert m.together(x, y) == (a.together(x, y) and b.together(x, y))


class TestCongruenceGenerated:
    def test_empty_is_diagonal(self):
        assert congruence_generated(K3, []) == Congruence.diagonal(3)

    @pytest.mark.parametrize("alg", [K3, DM4, C3, B2])
    def test_bounds_collapse_everything(self, alg):
        bot = op(alg, "zero") if "zero" in alg.signature else 0
        top = op(alg, "one")
        theta = congruence_generated(alg, [(bot, top)])
        assert theta == Congruence.all(alg.size)

    def test_heyting_principal(self):
        theta = congruence_generated(C3, [(1, 2)])
        assert block_sets(theta) == (frozenset({0}), frozenset({1, 2}))

    @pytest.mark.parametrize("alg", [K3, C3, DM4, make("mv_chain", 3).algebra])
    def test_least_among_compatible(self, alg):
        pairs = [(0, 1)]
        theta = congruence_generated(alg, pairs)
        best = None
        for raw in all_partitions(alg.size):
            cong = Congruence(raw)
            if not cong.together(0, 1):
                continue
            try:
                quotient(alg, cong)
            except IncompatiblePartition:
                continue
            if best is None or cong.num_blocks > best.num_blocks:
                best = cong
        assert best == theta


class TestRelativeCongruences:
    def test_kleene_self(self):
        cons = relative_congruences(K3, [K3])
        assert set(cons) == {Congruence.diagonal(3), Congruence.all(3)}

    def test_demorgan_relative_to_kleene(self):
        cons = relative_congruences(DM4, [K3])
        assert Congruence.diagonal(4) not in cons

    def test_separation_gives_diagonal(self):
        assert Congruence.diagonal(4) in relative_congruences(DM4, [DM4])

    def test_in_isp_iff_diagonal(self):
        for a, ms in [(K3, [K3]), (DM4, [K3]), (K3, [DM4]), (B2, [B2])]:
            assert in_isp(a, ms) == (
                Congruence.diagonal(a.size) in relative_congruences(a, ms)
            )


class TestRelSubdirectlyIrreducible:
    def test_kleene_is_si(self):
        assert is_rel_subdirectly_irreducible(K3, [K3])

    def test_two_element_is_si(self):
        b2 = make("bool2").algebra
        assert is_rel_subdirectly_irreducible(b2, [b2])

    def test_square_is_not_si(self):
        sq = direct_product([K3, K3])
        assert not is_rel_subdirectly_irreducible(sq, [K3])

    def test_membership_required(self):
        with pytest.raises(MembershipError):
            is_rel_subdirectly_irreducible(DM4, [K3])

    def test_enumerates_homomorphisms_once_per_generator(self, monkeypatch):
        targets = []
        real = algebra_module.hom_enumerate

        def counted(a, b):
            targets.append(b)
            return real(a, b)

        monkeypatch.setattr(algebra_module, "hom_enumerate", counted)
        assert not is_rel_subdirectly_irreducible(direct_product([K3, K3]), [K3, DM4])
        assert targets == [K3, DM4]

    def test_one_element_algebra_is_not_si(self):
        # its only relative congruence is the diagonal, so the meet of the
        # others is the empty meet: the diagonal again
        one = one_element(K3.signature)
        assert not is_rel_subdirectly_irreducible(one, [one])
        assert not is_rel_subdirectly_irreducible(one, [K3])

    @pytest.mark.parametrize(
        "gens",
        [
            ("kleene3",),
            ("demorgan4",),
            ("heyting_chain:4",),
            ("pseudo_b:2",),
            ("mv_chain:4",),
            ("moisil_L:3",),
            ("pre_moisil_L0:2",),
            ("kleene3", "kleene3"),
            ("heyting_chain:2", "heyting_chain:3"),
            ("mv_chain:1", "mv_chain:2"),
        ],
    )
    def test_subalgebras_match_definition(self, gens):
        # every subalgebra of a catalog algebra or of a product of two,
        # against the meet of the relative congruences other than the diagonal
        g = direct_product([make_id(i).algebra for i in gens]) if len(gens) > 1 else make_id(gens[0]).algebra
        for elems in subuniverses(g):
            sub, _ = induced_subalgebra(g, elems)
            assert is_rel_subdirectly_irreducible(sub, [g]) == rsi_by_definition(sub, [g])

    @settings(max_examples=200, deadline=None)
    @given(algebra_pairs())
    def test_random_algebras_match_definition(self, pair):
        a, b = pair
        for gens in ([a], [a, b], [b]):
            if in_isp(a, gens):
                assert is_rel_subdirectly_irreducible(a, gens) == rsi_by_definition(a, gens)
            else:
                with pytest.raises(MembershipError):
                    is_rel_subdirectly_irreducible(a, gens)


class TestInIsp:
    def test_self(self):
        assert in_isp(DM4, [DM4])

    def test_demorgan_not_in_kleene(self):
        assert not in_isp(DM4, [K3])

    def test_kleene_in_demorgan(self):
        assert in_isp(K3, [DM4])


class TestIsomorphic:
    def test_identity(self):
        iso = isomorphic(DM4, DM4)
        assert iso is not None and iso.is_valid() and is_bijective(iso)

    def test_different_signatures(self):
        assert isomorphic(K3, C3) is None

    def test_relabeled(self):
        # swap the roles of a and b in the De Morgan diamond
        perm = (0, 2, 1, 3)
        tables = []
        for (sym, arity), tab in zip(DM4.signature.symbols, DM4.tables):
            entries = []
            for args in itertools.product(range(4), repeat=arity):
                pre = [perm.index(x) for x in args]
                entries.append(perm[tab[DM4.flat_index(pre)]])
            tables.append(tuple(entries))
        relabeled = DM4.__class__(
            "dm_relabeled", 4, DM4.signature, tuple(tables)
        )
        iso = isomorphic(DM4, relabeled)
        assert iso is not None and iso.is_valid() and is_bijective(iso)

    def test_non_isomorphic_same_size(self):
        assert isomorphic(make("mv_chain", 3).algebra, make("mv_chain", 3).algebra) is not None
        assert isomorphic(make("heyting_chain", 3).algebra, C3) is not None


def free_by_closure(generators, n):
    """The free algebra on n generators over ``generators`` as the
    subalgebra of the product over (generator, assignment of the n
    variables) generated by the projections, by ``conftest.pointwise_closure``:
    its size, its tables over the sorted element tuples, read coordinate by
    coordinate with ``conftest.op``, and its free generators."""
    coords = [m for m in generators for _ in itertools.product(range(m.size), repeat=n)]
    assignments = [v for m in generators for v in itertools.product(range(m.size), repeat=n)]
    projections = [tuple(v[i] for v in assignments) for i in range(n)]
    elems = pointwise_closure(coords, projections)
    index = {t: k for k, t in enumerate(elems)}
    tables = tuple(
        tuple(
            index[tuple(op(c, sym, [a[i] for a in args]) for i, c in enumerate(coords))]
            for args in itertools.product(elems, repeat=arity)
        )
        for sym, arity in generators[0].signature.symbols
    )
    return len(elems), tables, tuple(index[g] for g in projections)


def validated_one_element() -> FiniteAlgebra:
    """The one-element algebra of kleene3's signature, its literal reduct validated."""
    one = one_element(K3.signature)
    d_reduct(one, DReductSpec.literal())
    return one


FREE_CASES = [
    ("kleene3", 0), ("kleene3", 1), ("kleene3", 2), ("demorgan4", 1), ("demorgan4", 2),
    ("heyting_chain:3", 2), ("bool2", 3), ("bool2", 4),
    *[(cid, 1) for cid in (
        "pseudo_b:2", "mv_chain:2", "mv_chain:3", "mv_chain:4", "moisil_L:3", "moisil_M:3",
        "pre_moisil_L0:2", "pre_moisil_M0:2", "heyting_chain:4",
    )],
    ("kleene3 demorgan4", 1), ("demorgan4 kleene3", 1), ("tests/data/demorgan4.alg", 1), ("one", 3),
    ("one kleene3", 1), ("kleene3 one", 2), ("one demorgan4 one", 1), ("kleene3 one kleene3", 1),
]


def free_case_generators(ids: str) -> list[FiniteAlgebra]:
    """The generating algebras a ``FREE_CASES`` entry names, each with its
    reduct validated: catalog ids, the one-element algebra ``one`` and
    ``.alg`` files with a reduct line."""
    out = []
    for cid in ids.split():
        if cid == "one":
            out.append(validated_one_element())
        elif cid.endswith(".alg"):
            (parsed,) = parse_algebra_file((Path(__file__).parent.parent / cid).read_text()).algebras
            d_reduct(parsed.algebra, parsed.reduct)
            out.append(parsed.algebra)
        else:
            out.append(make_id(cid).algebra)
    return out


class TestFreeAlgebra:
    """F(n) as E(M~^n), against the subpower closure of the projections."""

    def test_kleene_rank1(self):
        f = free_algebra([K3], 1)
        assert f.size == 6 and f.generators is not None

    def test_demorgan_rank1(self):
        assert free_algebra([DM4], 1).size == 6

    def test_rank0_two_elements(self):
        for alg in (K3, DM4, C3):
            assert free_algebra([alg], 0).size == 2

    @pytest.mark.parametrize("ids, n", FREE_CASES, ids=lambda v: str(v))
    def test_matches_the_closure_of_the_projections(self, ids, n):
        # E lists its morphisms in lexicographic order of their values,
        # sort-major: the order of the sorted tuples over (generator,
        # assignment), so name, tables and free generators all agree
        gens = free_case_generators(ids)
        f = free_algebra(gens, n)
        assert f.name == f"Free({'+'.join(m.name for m in gens)},{n})"
        assert (f.size, f.tables, f.generators) == free_by_closure(gens, n)

    @pytest.mark.parametrize("cid, n", [
        ("kleene3", 2), ("demorgan4", 2), ("heyting_chain:3", 2), ("bool2", 3), ("pseudo_b:2", 1),
    ])
    def test_any_kept_reduct_gives_the_same_algebra(self, cid, n):
        # a copy validated under the order-dual spec only (meet and join
        # swapped, bounds swapped) has other carriers, but E(M~^n) is the
        # same free algebra, listed in the same order
        entry = make_id(cid)
        spec = entry.spec
        dual = dataclasses.replace(entry.algebra)
        d_reduct(dual, DReductSpec(spec.join, spec.meet, spec.top, spec.bot))
        assert free_algebra([dual], n) == free_algebra([entry.algebra], n)

    def test_no_kept_reduct(self):
        # a fresh copy keeps no validated reduct, so M~ has no carriers to read
        with pytest.raises(LatcopError, match="lattice reduct validated on every generating algebra"):
            free_algebra([dataclasses.replace(K3)], 1)
        with pytest.raises(LatcopError, match="lattice reduct validated"):
            free_algebra([K3, dataclasses.replace(DM4)], 1)

    def test_points_cap(self):
        # free 2 demorgan4 needs 4^2 points per sort; 4^7 passes the default cap
        f = free_algebra([DM4], 2)
        assert (f.size, f.generators) == (168, (19, 58))
        with pytest.raises(CapExceeded) as exc:
            free_algebra([DM4], 7)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("structure product", 5000, 4**7)

    def test_small_cap_names_stage_and_budget(self):
        # M~^2 over K3 has 3^2 points; a cap of exactly that many passes
        with pytest.raises(CapExceeded) as exc:
            free_algebra([K3], 2, cap=8)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("structure product", 8, 9)
        assert str(exc.value) == "product structure needs 9 points in sort 0, cap is 8"
        assert free_algebra([K3], 2, cap=9).size == 84

    @pytest.mark.parametrize("n", [8, 2000])
    def test_printable_figures_are_exact(self, n):
        # 3^2000 has 955 digits, under the 4,300 Python prints
        with pytest.raises(CapExceeded) as exc:
            free_algebra([K3], n)
        assert exc.value.required == 3**n
        assert str(exc.value) == f"product structure needs {3**n} points in sort 0, cap is 5000"

    @pytest.mark.parametrize("n", [9013, 10**9])
    def test_figures_past_printing_are_lower_bounds(self, n):
        # 3^9013 has 4,301 digits: the figure stops at FIGURE_CEILING, and
        # no number much past it is formed, nor a list of n factors, so even
        # rank 10**9 is refused at once
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            free_algebra([K3], n)
        assert time.perf_counter() - start < 1
        assert (exc.value.stage, exc.value.budget, exc.value.required) == (
            "structure product", DEFAULT_POINTS_CAP, FIGURE_CEILING
        )
        assert str(exc.value) == f"product structure needs {FIGURE_CEILING}+ points in sort 0, cap is 5000"
        assert exc.value.budget_note().endswith(f"required {FIGURE_CEILING}")

    def test_cap_at_the_ceiling_is_still_compared_exactly(self):
        # a cap of 4,300 nines is compared with 3^9013 itself, not with the
        # printable lower bound, which equals the cap; 3^9012 is under it
        assert 3**9012 < FIGURE_CEILING < 3**9013
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            free_algebra([K3], 9013, cap=FIGURE_CEILING)
        assert time.perf_counter() - start < 1
        assert (exc.value.budget, exc.value.required) == (FIGURE_CEILING, FIGURE_CEILING)

    def test_negative_rank(self):
        with pytest.raises(LatcopError, match="non-negative"):
            free_algebra([K3], -1)

    def test_rank_past_the_cap_over_one_element_generators(self):
        # a one-element generator adds no points, so over such generators
        # only the rank itself is charged: refused at once
        one = validated_one_element()
        assert free_algebra([one], 3, cap=3).generators == (0, 0, 0)
        start = time.perf_counter()
        with pytest.raises(CapExceeded) as exc:
            free_algebra([one], 10**9, cap=10**6)
        assert time.perf_counter() - start < 1
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("free algebra", 10**6, 10**9)
        assert str(exc.value) == "free algebra on 1000000000 generators exceeds the cap 1000000"

    @pytest.mark.parametrize("gen", [K3, DM4, C3, MV2])
    def test_hom_count_equals_generator_size(self, gen):
        f = free_algebra([gen], 1, cap=10**9)
        assert len(hom_enumerate(f, gen)) == gen.size

    def test_multi_generator_free(self):
        # freeness against both generating algebras at once
        f = free_algebra([K3, DM4], 1, cap=10**9)
        assert len(hom_enumerate(f, K3)) == K3.size
        assert len(hom_enumerate(f, DM4)) == DM4.size
        assert in_isp(f, [K3, DM4])

    @pytest.mark.parametrize("gen,n", [(K3, 1), (K3, 2), (DM4, 1), (C3, 2), (MV2, 1)])
    def test_universal_property(self, gen, n):
        f = free_algebra([gen], n, cap=10**12)
        homs = hom_enumerate(f, gen)
        gens = f.generators
        by_assignment = {}
        for h in homs:
            key = tuple(h.map[g] for g in gens)
            by_assignment.setdefault(key, []).append(h)
        # exactly one extension per assignment of the free generators
        assert len(by_assignment) == gen.size**n
        assert all(len(v) == 1 for v in by_assignment.values())


@st.composite
def maps_to_check(draw):
    """Two algebras over one random set of nullary to ternary symbols and
    image vectors between them: homomorphisms from the map search and
    random maps, some with images outside the target."""
    sig = Signature(tuple(draw(st.lists(st.sampled_from(_TERM_SIG.symbols), min_size=1, unique=True))))

    def algebra(name: str) -> FiniteAlgebra:
        n = draw(st.integers(1, 4))
        return FiniteAlgebra(name, n, sig, tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for _, k in sig.symbols
        ))

    a, b = algebra("a"), algebra("b")
    homs = [h.map for h in hom_enumerate(a, b)]
    picked = draw(st.lists(st.sampled_from(homs), max_size=3)) if homs else []
    values = st.integers(-1, b.size) if draw(st.booleans()) else st.integers(0, b.size - 1)
    random_maps = draw(st.lists(st.tuples(*[values] * a.size), max_size=4))
    return a, b, picked + [tuple(m) for m in random_maps]


class TestIsValid:
    @settings(max_examples=300, deadline=None)
    @given(maps_to_check())
    def test_matches_the_exhaustive_loop(self, case):
        a, b, maps = case
        for m in maps:
            h = Homomorphism(a, b, m)
            assert h.is_valid() == is_hom_by_loop(h), m

    def test_every_enumerated_map_is_valid(self):
        for a, b in [(K3, K3), (DM4, DM4), (MED3, MED3), (C3, C3)]:
            assert all(h.is_valid() for h in hom_enumerate(a, b))

    def test_wrong_length_and_signature_are_invalid(self):
        assert not Homomorphism(K3, K3, (0, 1)).is_valid()
        assert not Homomorphism(K3, C3, (0, 1, 2)).is_valid()  # different signatures


class TestHomomorphismBasics:
    @pytest.mark.parametrize("image", [(0, -1), (0, 2)])
    def test_image_outside_target_is_invalid(self, image):
        # a negative index would wrap and an index past the end would raise
        two = FiniteAlgebra("two", 2, Signature((("f", 1),)), ((0, 0),))
        assert not Homomorphism(two, two, image).is_valid()
        assert Homomorphism(two, two, (0, 0)).is_valid()

    def test_kernel_and_compose(self):
        h = hom_enumerate(DM4, DM4)[1]  # the automorphism swapping a and b
        assert kernel(h) == Congruence.diagonal(4)
        assert compose(h, h).map == tuple(range(4))
        assert inverse(h).map == h.map

    def test_induced_subalgebra(self):
        sub, elems = induced_subalgebra(DM4, {0, 1, 3})
        assert elems == (0, 1, 3)
        assert isomorphic(sub, K3) is not None


class TestTernaryPointwise:
    """Every subpower construction on an algebra with a ternary operation,
    against the ``conftest.op`` oracle."""

    def test_direct_product(self):
        p = direct_product([MED3, MED3])
        square = list(itertools.product(range(3), repeat=2))
        assert p.tables == pointwise_tables([MED3, MED3], square)

    def test_induced_subalgebra(self):
        sub, elems = induced_subalgebra(MED3, {0, 2})
        assert sub.tables == pointwise_tables([MED3], [(x,) for x in elems])

    @pytest.mark.parametrize("n", [1, 2])
    def test_free_algebra(self, n):
        d_reduct(MED3, DReductSpec.literal())  # M~ reads the kept reduct
        f = free_algebra([MED3], n)
        coords = [MED3] * 3**n
        assignments = list(itertools.product(range(3), repeat=n))
        gens = [tuple(v[i] for v in assignments) for i in range(n)]
        elems = pointwise_closure(coords, gens)
        assert f.tables == pointwise_tables(coords, elems)
        assert f.generators == tuple(elems.index(g) for g in gens)

    def test_coproduct_of_two_copies(self):
        cop = coproduct([MED3], DReductSpec.literal(), None, [MED3, MED3])
        x = cop.structure
        coords = [x.ego.sorts[s] for s, sort in enumerate(x.points) for _ in sort]
        assert cop.algebra.tables == pointwise_tables(coords, list(e_functor(x).morphisms))
        # maj is a lattice term, so this is F(1)+F(1) = F(2) of bounded
        # distributive lattices
        assert cop.algebra.size == 6

    @pytest.mark.parametrize(
        "factors, universe, symbol",
        [
            (1, [(0,), (1,)], "one"),
            (2, [(0, 0), (1, 0), (0, 1), (2, 2)], "maj"),
        ],
    )
    def test_kernel_rejects_unclosed_universe(self, factors, universe, symbol):
        with pytest.raises(LatcopError, match=f"not closed under '{symbol}'"):
            _subpower(MED3.signature, [MED3] * factors, universe)


def random_tables(draw, sig: Signature, n: int, commutative: bool) -> tuple[tuple[int, ...], ...]:
    """Random tables on n elements, one per symbol of ``sig``; with
    ``commutative`` the binary ones are drawn on the lower half of the
    square and mirrored."""
    tables = []
    for _, k in sig.symbols:
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        if k == 2 and commutative:
            table = [table[max(x, y) * n + min(x, y)] for x in range(n) for y in range(n)]
        tables.append(tuple(table))
    return tuple(tables)


@st.composite
def extension_cases(draw):
    """Two algebras a (1-4 elements) and b (1-3) over a random signature of
    some of a nullary, a unary, a binary and a ternary symbol, the binary
    one commutative in both, in one of them or in neither; seeds on a
    random subset of a, with 1-2 value columns, each a homomorphism's values
    (when one exists) or random values."""
    symbols = [("c", 0), ("u", 1), ("b", 2), ("t", 3)]
    sig = Signature(tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))))

    def algebra(name: str, n: int) -> FiniteAlgebra:
        return FiniteAlgebra(name, n, sig, random_tables(draw, sig, n, draw(st.booleans())))

    a = algebra("a", draw(st.integers(1, 4)))
    b = algebra("b", draw(st.integers(1, 3)))
    homs = brute_force_homs(a, b)
    columns = [
        draw(st.sampled_from(homs)) if homs and draw(st.booleans())
        else draw(st.lists(st.integers(0, b.size - 1), min_size=a.size, max_size=a.size))
        for _ in range(draw(st.integers(1, 2)))
    ]
    seeds = draw(st.lists(st.integers(0, a.size - 1), unique=True))
    return a, b, {x: tuple(col[x] for col in columns) for x in seeds}, len(columns)


class TestExtendsToHom:
    @settings(max_examples=300, deadline=None)
    @given(extension_cases(), st.sampled_from([1, 5, algebra_module._BLOCK]))
    def test_matches_closure_oracle(self, case, block):
        a, b, rows, width = case
        expected = universal_by_closure(a, b, rows, width)
        # small blocks put block seams everywhere
        with mock.patch.object(algebra_module, "_BLOCK", block):
            assert _extends_to_hom(a, b, rows, width) == expected

    def test_map_failing_away_from_the_bottom(self):
        # on the 3-chain under meet, 0 -> 0, 1 -> 2, 2 -> 1 commutes on
        # every pair with the bottom in it, but not on (1, 2)
        meet = FiniteAlgebra("chain3", 3, Signature((("meet", 2),)), (
            tuple(min(x, y) for x in range(3) for y in range(3)),
        ))
        rows = {0: (0,), 1: (2,), 2: (1,)}
        assert not universal_by_closure(meet, meet, rows, 1)
        assert not _extends_to_hom(meet, meet, rows, 1)
        assert _extends_to_hom(meet, meet, {0: (0,), 1: (1,), 2: (2,)}, 1)

    # a block of one table read leaves (0, 1) outside every chunk's
    # diagonal block, so a half read where a full one is needed shows
    @pytest.mark.parametrize("block", [1, algebra_module._BLOCK])
    def test_commutative_on_one_side_only(self, block):
        # max is commutative, the left projection is not: the identity on
        # {0, 1} commutes on the lower half (x >= y) but fails at (0, 1)
        sig = Signature((("b", 2),))
        join = FiniteAlgebra("join", 2, sig, ((0, 1, 1, 1),))
        left = FiniteAlgebra("left", 2, sig, ((0, 0, 1, 1),))
        rows = {0: (0,), 1: (1,)}
        for a, b in [(join, left), (left, join)]:
            assert not universal_by_closure(a, b, rows, 1)
            with mock.patch.object(algebra_module, "_BLOCK", block):
                assert not _extends_to_hom(a, b, rows, 1)

    @pytest.mark.parametrize("block", [1, algebra_module._BLOCK])
    def test_element_reached_above_the_diagonal_only(self, block):
        # b(0, 1) = 2 is the only way to reach 2 from {0, 1}; b is not
        # commutative, so the rounds must read the upper half too
        sig = Signature((("b", 2),))
        table = tuple(2 if (x, y) == (0, 1) else x for x in range(3) for y in range(3))
        a = FiniteAlgebra("a", 3, sig, (table,))
        rows = {0: (0,), 1: (1,)}
        assert universal_by_closure(a, a, rows, 1)
        with mock.patch.object(algebra_module, "_BLOCK", block):
            assert _extends_to_hom(a, a, rows, 1)


class TestTableEntryBudget:
    """``TABLE_ENTRY_BUDGET`` bounds the sum of size**arity over the
    symbols before tables are allocated, and E(X) charges it per solution;
    tiny budgets stand in for inputs like demorgan4^4, whose E(X) would
    need 2 * 65536**2 entries."""

    def test_boundary(self, monkeypatch):
        need = 2 * 16**2 + 16 + 2  # DM4 x DM4: meet, join, neg, zero, one
        monkeypatch.setattr(algebra_module, "TABLE_ENTRY_BUDGET", need)
        assert direct_product([DM4, DM4]).size == 16
        monkeypatch.setattr(algebra_module, "TABLE_ENTRY_BUDGET", need - 1)
        with pytest.raises(CapExceeded) as exc:
            direct_product([DM4, DM4])
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("table build", need - 1, need)
        assert str(exc.value) == f"subpower tables need {need}+ entries, budget is {need - 1}"

    def test_charged_per_solution_of_the_search(self, monkeypatch):
        # free_algebra([K3], 2) has 84 elements; the E-functor search stops
        # at the 23rd, the first whose tables pass the budget
        monkeypatch.setattr(algebra_module, "TABLE_ENTRY_BUDGET", 1000)
        assert algebra_module._table_capacity(K3.signature) == 22
        with pytest.raises(CapExceeded) as exc:
            free_algebra([K3], 2)
        assert (exc.value.stage, exc.value.budget, exc.value.required) == ("table build", 1000, 2 * 23**2 + 23 + 2)
        assert str(exc.value) == "subpower tables need 1083+ entries, budget is 1000"

    @pytest.mark.parametrize("symbols", [(), (("c", 0),), (("u", 1),), (("b", 2), ("c", 0)), (("t", 3),)])
    def test_capacity_is_the_largest_count_that_fits(self, monkeypatch, symbols):
        monkeypatch.setattr(algebra_module, "TABLE_ENTRY_BUDGET", 1000)
        sig = Signature(symbols)
        most = algebra_module._table_capacity(sig)
        entries = [sum(count**arity for _, arity in symbols) for count in (most, most + 1)]
        # a signature whose tables never pass the budget reads the budget itself
        assert entries[0] <= 1000 and (entries[1] > 1000 or most == 1000)

    def test_product_refused_before_allocating(self):
        # DM4^6 has 4096 elements, so its binary tables alone would take
        # 64 MB; it is refused with the need the subpower kernel reported,
        # before even its 4096 element tuples (about 0.5 MB) are listed
        need = 2 * 4096**2 + 4096 + 2
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc:
                direct_product([DM4] * 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (exc.value.stage, exc.value.budget, exc.value.required) == (
            "table build", algebra_module.TABLE_ENTRY_BUDGET, need
        )
        assert str(exc.value) == f"subpower tables need {need}+ entries, budget is 10000000"
        assert peak < 1 << 16

    def test_need_past_printing_is_a_lower_bound(self):
        # B2^4000 has 2,796 digits and its binary tables 5,592: more than the
        # 4,300 Python prints, so the need is reported as FIGURE_CEILING+
        with pytest.raises(CapExceeded) as exc:
            direct_product([B2] * 4000)
        assert (exc.value.stage, exc.value.required) == ("table build", FIGURE_CEILING)
        assert str(exc.value) == f"subpower tables need {FIGURE_CEILING}+ entries, budget is 10000000"


@st.composite
def product_cases(draw):
    """A signature of some of a nullary, a unary, a binary and a ternary
    symbol in random order, and 1-3 factors of 1-4 elements with random
    tables."""
    symbols = [("c", 0), ("u", 1), ("b", 2), ("t", 3)]
    sig = Signature(tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))))
    factors = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        factors.append(FiniteAlgebra(f"f{i}", n, sig, tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for _, k in sig.symbols
        )))
    return sig, factors


class TestDirectProduct:
    """The broadcast tables of ``direct_product`` against the subpower
    kernel, which closes the listed product as a given universe."""

    @settings(max_examples=150, deadline=None)
    @given(product_cases())
    def test_matches_the_subpower_kernel(self, case):
        _, factors = case
        assert direct_product(factors) == product_by_subpower(factors)


@st.composite
def small_algebras(draw):
    """A 1-4 element algebra with some of a nullary, a unary, a binary and
    a ternary symbol in random order; the binary table is drawn symmetric
    or not."""
    symbols = draw(st.permutations([("c", 0), ("u", 1), ("b", 2), ("t", 3)]))
    sig = Signature(tuple(symbols[: draw(st.integers(1, 4))]))
    n = draw(st.integers(1, 4))
    tables = []
    for _, k in sig.symbols:
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        if k == 2 and draw(st.booleans()):
            table = [table[min(x, y) * n + max(x, y)] for x in range(n) for y in range(n)]
        tables.append(tuple(table))
    return FiniteAlgebra("a", n, sig, tuple(tables))


class TestTableArrays:
    """``FiniteAlgebra.arrays``: one read-only array per table, whether the
    table came in as a tuple or as an array."""

    @settings(max_examples=200, deadline=None)
    @given(small_algebras(), st.sampled_from([np.int8, np.uint8, np.int64, np.uint16]))
    def test_array_and_tuple_tables_agree(self, a, dtype):
        given = [np.array(t, dtype) for t in a.tables]
        b = FiniteAlgebra(a.name, a.size, a.signature, tuple(given))
        assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        assert all(type(t) is tuple for t in b.tables)
        for alg in (dataclasses.replace(a), b):  # a fresh copy builds its arrays anew
            renamed = alg.rename("renamed")
            arrays = alg.arrays()
            for array, table in zip(arrays, alg.tables):
                assert array.ndim == 1 and array.dtype == _index_dtype(alg.size)
                assert array.tolist() == list(table)
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
            assert all(x is y for x, y in zip(alg.arrays(), arrays))
            # renamed before or after the arrays were built, a copy shares them
            for copy in (renamed, alg.rename("later")):
                assert all(x is y for x, y in zip(copy.arrays(), arrays))
            assert alg.symmetric() == symmetric_by_slices(alg)
        # the algebra keeps its own copy: the caller's arrays stay writeable
        for array in given:
            assert array.flags.writeable
            array[0] = a.size - 1 - array[0]
        assert b.arrays()[0].tolist() == list(a.tables[0])

    @pytest.mark.parametrize(
        "bad, dtype",
        [({4: 7, 6: -1}, np.int64), ({3: -2, 5: 9}, np.int8), ({2: 200}, np.uint8), ({8: 3}, np.uint16)],
    )
    def test_out_of_range_entry_named_as_for_a_tuple(self, bad, dtype):
        table = np.zeros(9, dtype)
        for pos, v in bad.items():
            table[pos] = v
        sig = Signature((("g", 2),))
        with pytest.raises(LatcopError) as from_tuple:
            FiniteAlgebra("bad", 3, sig, (tuple(table.tolist()),))
        with pytest.raises(LatcopError) as from_array:
            FiniteAlgebra("bad", 3, sig, (table,))
        assert str(from_array.value) == str(from_tuple.value)
        first = next(v for v in table.tolist() if not 0 <= v < 3)
        assert str(from_array.value) == f"algebra 'bad': table entry {first} for 'g' outside universe 0..2"

    def test_array_of_wrong_length_or_kind(self):
        sig = Signature((("g", 2),))
        with pytest.raises(LatcopError, match="table for 'g' has 8 entries, expected 9"):
            FiniteAlgebra("bad", 3, sig, (np.zeros(8, np.uint8),))
        with pytest.raises(LatcopError, match="table for 'g' must hold integers"):
            FiniteAlgebra("bad", 3, sig, (np.zeros(9),))

    @pytest.mark.parametrize("alg", [K3, DM4, C3, MED3, MV2, B2], ids=lambda a: a.name)
    def test_symmetric_matches_the_slices(self, alg):
        assert alg.symmetric() == symmetric_by_slices(alg)


class TestTableRangeCheck:
    @pytest.mark.parametrize(
        "bad, message",
        [({4: 7, 6: -1}, "table entry 7 "), ({3: -2, 5: 9}, "table entry -2 ")],
    )
    def test_first_bad_entry_is_named(self, bad, message):
        table = [0] * 9
        for pos, v in bad.items():
            table[pos] = v
        with pytest.raises(LatcopError, match=message + r"for 'g' outside universe 0\.\.2"):
            FiniteAlgebra("bad", 3, Signature((("g", 2),)), (tuple(table),))


@st.composite
def subpower_cases(draw):
    """A signature of some of a nullary, a unary, a binary and a ternary
    symbol in random order; 0-3 coordinates of 1-3 elements with random
    tables, the binary one commutative in every coordinate or in a random
    few; up to 3 generators, whose closure is a closed universe; a random
    subset of the product in random order."""
    symbols = [("c", 0), ("u", 1), ("b", 2), ("t", 3)]
    sig = Signature(tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))))
    everywhere = draw(st.booleans())
    coords = []
    for i in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 3))
        commutative = everywhere or draw(st.booleans())
        coords.append(FiniteAlgebra(f"c{i}", n, sig, random_tables(draw, sig, n, commutative)))
    product = list(itertools.product(*(range(c.size) for c in coords)))
    gens = draw(st.lists(st.sampled_from(product), max_size=3))
    subset = draw(st.lists(st.sampled_from(product), unique=True))
    return sig, coords, gens, subset


def kernel_tables(signature, coords, universe):
    """``_subpower``'s tables on ``universe``, each read as
    ``tuple(t.tolist())``; the kernel returns flat arrays in the dtype
    ``_index_dtype`` of the element count."""
    tables = _subpower(signature, coords, universe)
    assert all(t.ndim == 1 and t.dtype == _index_dtype(len(universe)) for t in tables)
    return tuple(tuple(t.tolist()) for t in tables)


def _first_unclosed(sig, coords, subset):
    """The first symbol in signature order under which ``subset`` is not
    closed, by ``conftest.op``; None when it is closed."""
    inside = set(subset)
    for sym, arity in sig.symbols:
        for args in itertools.product(subset, repeat=arity):
            if tuple(op(c, sym, [a[i] for a in args]) for i, c in enumerate(coords)) not in inside:
                return sym
    return None


@st.composite
def trie_cases(draw):
    """A signature of some of a nullary, a unary and a binary symbol; 1-6
    coordinates of 1-6 elements with random tables; up to 2 generators,
    whose closure is a closed universe, and up to 6 distinct tuples of the
    product, drawn coordinate by coordinate."""
    symbols = [("c", 0), ("u", 1), ("b", 2)]
    sig = Signature(tuple(draw(st.lists(st.sampled_from(symbols), min_size=1, unique=True))))
    coords = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 6))
        coords.append(FiniteAlgebra(f"c{i}", n, sig, tuple(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k)))
            for _, k in sig.symbols
        )))
    row = st.tuples(*(st.integers(0, c.size - 1) for c in coords))
    return sig, coords, draw(st.lists(row, max_size=2)), draw(st.lists(row, max_size=6, unique=True))


class TestChunks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=4),
        st.integers(1, 40),
    )
    def test_row_major_rectangles_of_at_most_step(self, axes, step):
        slab = tuple(slice(lo, lo + length) for lo, length in axes)
        chunks = list(algebra_module._chunks(slab, step))
        assert all(prod(s.stop - s.start for s in c) <= step for c in chunks)
        # read in order, the chunks' tuples are the slab's in row-major order
        tuples = [t for c in chunks for t in itertools.product(*(range(s.start, s.stop) for s in c))]
        assert tuples == list(itertools.product(*(range(s.start, s.stop) for s in slab)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 60))
    def test_half_square_of_a_round(self, old, new, step):
        # a commutative symbol's round: the new rows against the lower half,
        # each rectangle at most ``step`` tuples, no ordered pair twice
        subs = algebra_module._slabs(2, old, new, False, step, True)
        assert all((r.stop - r.start) * (c.stop - c.start) <= step for r, c in subs)
        pairs = [(x, y) for r, c in subs for x in range(r.start, r.stop) for y in range(c.start, c.stop)]
        assert len(pairs) == len(set(pairs))
        assert set(pairs) >= {(x, y) for x in range(old, old + new) for y in range(x + 1)}
        assert all(old <= x < old + new and y < old + new for x, y in pairs)


class TestSubpowerKernel:
    """The numpy subpower kernel against the ``conftest.op`` oracles."""

    @settings(max_examples=200, deadline=None)
    @given(subpower_cases(), st.sampled_from([1, 5, algebra_module._BLOCK]))
    def test_matches_pointwise_oracle(self, case, block):
        sig, coords, gens, subset = case
        # small blocks put block seams everywhere
        with mock.patch.object(algebra_module, "_BLOCK", block):
            closure = pointwise_closure(coords, gens, sig)
            assert kernel_tables(sig, coords, closure) == pointwise_tables(coords, closure, sig)
            bad = _first_unclosed(sig, coords, subset)
            if bad is None:
                assert kernel_tables(sig, coords, subset) == pointwise_tables(coords, subset, sig)
            else:
                # a given universe is the caller's promise: a bug if not closed
                with pytest.raises(InternalError, match=f"not closed under '{bad}'"):
                    _subpower(sig, coords, subset)
        # one coordinate: the induced subalgebra is the kernel on the subset
        if len(coords) == 1 and subset:
            elems = sorted(subset)
            if bad is None:
                sub, order = induced_subalgebra(coords[0], [x for (x,) in subset])
                assert order == tuple(x for (x,) in elems)
                assert sub.tables == pointwise_tables(coords, elems, sig)
            else:
                with pytest.raises(LatcopError, match=f"not closed under '{bad}'"):
                    induced_subalgebra(coords[0], [x for (x,) in subset])

    @pytest.mark.parametrize(
        "algebra, elements, symbol",
        [(MED3, {0, 1}, "one"), (K3, {0, 1}, "neg"), (DM4, {0, 1, 2}, "join"), (C3, {0, 2}, None)],
    )
    def test_induced_subalgebra_not_closed(self, algebra, elements, symbol):
        coords, subset = [algebra], [(x,) for x in sorted(elements)]
        assert _first_unclosed(algebra.signature, coords, subset) == symbol
        if symbol is None:
            sub, _ = induced_subalgebra(algebra, elements)
            assert sub.tables == pointwise_tables(coords, subset)
        else:
            with pytest.raises(LatcopError, match=f"not closed under '{symbol}'") as info:
                induced_subalgebra(algebra, elements)
            # the caller's set, not a latcop bug: exit 2, not 3
            assert not isinstance(info.value, InternalError)

    @pytest.mark.parametrize("make_it", [
        lambda: (free_algebra([K3], 2), [K3]),
        lambda: (free_algebra([MED3], 1), [MED3]),
        # imp is not commutative, meet and join are
        lambda: (free_algebra([C3], 2), [C3]),
        lambda: (FiniteAlgebra("DM4xK3", 12, DM4.signature, _subpower(
            DM4.signature, [DM4, K3], list(itertools.product(range(4), range(3)))
        )), [DM4, K3]),
        # join is commutative in one coordinate only
        lambda: (FiniteAlgebra("K3xK3'", 9, K3.signature, _subpower(
            K3.signature, [K3, LEFT_JOIN_K3], list(itertools.product(range(3), repeat=2))
        )), [K3, LEFT_JOIN_K3]),
    ])
    def test_each_argument_tuple_evaluated_once(self, make_it):
        # the results of the one pass over the universe are the tables:
        # no argument tuple is looked up twice
        d_reduct(MED3, DReductSpec.literal())  # the free algebras read M~
        evaluated: dict[str, list] = {}
        real = algebra_module._Product.evaluate

        def counted(product, operation, weights, slab):
            if slab:
                evaluated.setdefault(operation[0], []).append(slab)
            return real(product, operation, weights, slab)

        with mock.patch.object(algebra_module._Product, "evaluate", counted):
            alg, coords = make_it()
        n = alg.size
        for i, (sym, arity) in enumerate(alg.signature.symbols):
            if not arity:
                continue
            slabs = evaluated.get(sym, [])
            count = sum(prod(s.stop - s.start for s in slab) for slab in slabs)
            if not all(symmetric_by_slices(c)[i] for c in coords):
                assert count == n**arity
                continue
            # commutative: the lower half of the square, where only a
            # chunk's diagonal block is read in both orders
            pairs = [
                (x, y) for rows, cols in slabs
                for x in range(rows.start, rows.stop) for y in range(cols.start, cols.stop)
            ]
            seen = set(pairs)
            assert len(pairs) == len(seen)
            assert all((x, y) in seen or (y, x) in seen for x in range(n) for y in range(x + 1))
            diagonal = [range(max(r.start, c.start), min(r.stop, c.stop)) for r, c in slabs]
            both = {(x, y) for x, y in seen if x != y and (y, x) in seen}
            assert both == {(x, y) for d in diagonal for x in d for y in d if x != y}
            assert count == n * (n + 1) // 2 + sum(len(d) * (len(d) - 1) // 2 for d in diagonal)
            if n * n > algebra_module._BLOCK:  # more than one chunk
                assert count < n * n

    def test_coordinate_past_one_byte(self):
        # 300 values need two bytes per coordinate; the generated universe
        # 250..299 straddles 256
        n = 300
        sig = Signature((("meet", 2), ("succ", 1)))
        chain = FiniteAlgebra("chain300", n, sig, (
            tuple(min(x, y) for x in range(n) for y in range(n)),
            tuple(min(x + 1, n - 1) for x in range(n)),
        ))
        elems = pointwise_closure([chain], [(250,)])
        assert elems == [(x,) for x in range(250, n)]
        assert kernel_tables(sig, [chain], elems) == pointwise_tables([chain], elems)
        assert direct_product([chain]).tables == chain.tables

    def test_empty_product(self):
        # its one tuple () is closed; the empty universe is closed only
        # without constants
        assert kernel_tables(DM4.signature, [], [()]) == tuple((0,) for _ in DM4.signature.symbols)
        with pytest.raises(InternalError, match="not closed under 'zero'"):
            _subpower(DM4.signature, [], [])
        no_constants = Signature((("f", 1), ("g", 2)))
        assert kernel_tables(no_constants, [], []) == ((), ())
        assert kernel_tables(no_constants, [], [()]) == ((0,), (0,))

    def test_binary_table_across_a_block_seam(self):
        # 70^2 argument pairs times 4 coordinates is more table reads than
        # one block holds
        n, k = 70, 4
        sig = Signature((("meet", 2), ("join", 2)))
        r = range(n)
        chain = FiniteAlgebra("chain70", n, sig, (
            tuple(min(x, y) for x in r for y in r),
            tuple(max(x, y) for x in r for y in r),
        ))
        assert n * n * k > algebra_module._BLOCK
        diagonal = [(x,) * k for x in reversed(r)]
        assert kernel_tables(sig, [chain] * k, diagonal) == pointwise_tables([chain] * k, diagonal)

    @pytest.mark.parametrize("moved", [0, 2])
    def test_row_absent_at_one_level(self, moved):
        # u moves coordinate ``moved`` from 0 to 1 and fixes the others, and
        # every row of the universe is 0 there: u of a row is absent from the
        # trie's first level (moved = 0) or only from its last (moved = 2)
        sig = Signature((("u", 1),))
        step = FiniteAlgebra("step", 2, sig, ((1, 1),))
        fixed = FiniteAlgebra("fixed", 2, sig, ((0, 1),))
        coords = [step if i == moved else fixed for i in range(3)]
        universe = [(0, 0, 0), tuple(0 if i == moved else 1 for i in range(3))]
        with pytest.raises(InternalError, match="not closed under 'u'"):
            _subpower(sig, coords, universe)
        closure = pointwise_closure(coords, universe)
        assert closure == sorted(universe + [tuple(int(i == moved) for i in range(3)), (1, 1, 1)])
        assert kernel_tables(sig, coords, closure) == pointwise_tables(coords, closure)

    def test_coordinates_of_size_one(self):
        one = FiniteAlgebra("one", 1, K3.signature, tuple((0,) for _ in K3.signature.symbols))
        coords = [one, K3, one, one, K3, one]
        product = list(itertools.product(*(range(c.size) for c in coords)))
        assert direct_product(coords).tables == pointwise_tables(coords, product)
        closure = pointwise_closure(coords, [(0, 1, 0, 0, 0, 0)])
        assert kernel_tables(K3.signature, coords, closure) == pointwise_tables(coords, closure)
        point = [(0, 0, 0)]
        assert kernel_tables(K3.signature, [one] * 3, point) == pointwise_tables([one] * 3, point)

    def test_prefix_count_past_one_byte(self):
        # s_j steps coordinate j round a 3-cycle: from the zero row the
        # closure is all 3^6 rows, so the prefix counts and row numbers
        # outgrow one byte
        k = 6
        sig = Signature(tuple((f"s{j}", 1) for j in range(k)))
        coords = [
            FiniteAlgebra(f"z{i}", 3, sig, tuple(
                tuple((x + 1) % 3 if i == j else x for x in range(3)) for j in range(k)
            ))
            for i in range(k)
        ]
        closure = pointwise_closure(coords, [(0,) * k])
        assert len(closure) == 3**k
        assert kernel_tables(sig, coords, closure) == pointwise_tables(coords, closure)
        shuffled = random.Random(0).sample(closure, len(closure))
        assert kernel_tables(sig, coords, shuffled) == pointwise_tables(coords, shuffled)
        product = algebra_module._Product(sig, coords, closure)
        assert {t.itemsize for t in product.levels + [product.last]} == {1, 2}

    def test_forty_coordinates_past_int64(self):
        # 4^40 tuples: a mixed-radix key would overflow int64
        k = 40
        coords = [DM4] * k
        assert DM4.size**k > 2**63
        diagonal = [(x,) * k for x in (2, 0, 3, 1)]
        assert kernel_tables(DM4.signature, coords, diagonal) == pointwise_tables(coords, diagonal)
        closure = pointwise_closure(coords, [(1,) * k, (0,) * (k - 1) + (2,)])
        assert kernel_tables(DM4.signature, coords, closure) == pointwise_tables(coords, closure)

    @settings(max_examples=150, deadline=None)
    @given(trie_cases(), st.sampled_from([1, 7, algebra_module._BLOCK]))
    def test_trie_matches_pointwise_oracle(self, case, block):
        sig, coords, gens, subset = case
        with mock.patch.object(algebra_module, "_BLOCK", block):
            bad = _first_unclosed(sig, coords, subset)
            if bad is None:
                assert kernel_tables(sig, coords, subset) == pointwise_tables(coords, subset, sig)
            else:
                with pytest.raises(InternalError, match=f"not closed under '{bad}'"):
                    _subpower(sig, coords, subset)
            # the closure lies in the product of the coordinates' closures;
            # the oracle is run where that bound is small
            bound = prod(
                len(pointwise_closure([c], [(g[i],) for g in gens], sig)) for i, c in enumerate(coords)
            )
            if bound <= 64:
                closure = pointwise_closure(coords, gens, sig)
                for universe in (closure, closure[::-1]):
                    assert kernel_tables(sig, coords, universe) == pointwise_tables(coords, universe, sig)

"""Acceptance criteria, one test per criterion.

Every check is exact (set equality / verdict equality); there are no
numerical tolerances anywhere.  Each test prints a pass line so the suite
doubles as a human-readable acceptance report (run with -s or look at the
test names in -v output).
"""

import itertools

import pytest

from conftest import (
    brute_force_homs,
    brute_force_maximal_subuniverses,
    ego_for,
    encode,
    evaluation_check,
    iota_check,
    lambda_map,
    leq_sublattice,
    reflector,
    relation_orbit_count,
    relation_sizes,
    report_for,
    unique_max_applicable,
)
from latcop.algebra import (
    direct_product,
    free_algebra,
    hom_enumerate,
    isomorphic,
)
from latcop.catalog import make, make_id, table1_suite
from latcop.duality import (
    coproduct,
    reveng_priestley,
)
from latcop.errors import CapExceeded
from latcop.piggyback import (
    carrier_from_filter,
    carriers_of,
    maximal_subuniverses_in,
    minimal_omega_certified,
    sep_condition,
)

# the nine-pair De Morgan relation, with 0,a,b,1 encoded as 0,1,2,3
DM_RELATION = frozenset(
    [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)]
)
GOEDEL_R1 = frozenset([(0, 0), (1, 1), (2, 2)])
GOEDEL_R2 = frozenset([(0, 0), (1, 2), (2, 2)])


def _passed(n: int, text: str) -> None:
    print(f"[PASS] criterion {n:2d}: {text}")


def test_criterion_01_de_morgan():
    rep = report_for("demorgan4")
    assert (rep.verdict_E, rep.verdict_S) == (True, True)
    ego = ego_for("demorgan4")
    assert len(ego.relations) == 1
    assert frozenset(ego.relations[0].pairs) == DM_RELATION
    _passed(1, "De Morgan classifies E+S+ with exactly the nine-pair relation")


def test_criterion_02_kleene():
    entry = make("kleene3")
    omega, cert = minimal_omega_certified([entry.algebra], entry.spec)
    assert [w.elements for w in omega] == [frozenset({1, 2}), frozenset({2})]
    assert cert.size == 2 and tuple(range(1, cert.size)) == (1,)
    ego = ego_for("kleene3")
    assert relation_sizes(ego) == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    rep = report_for("kleene3")
    assert (rep.verdict_E, rep.verdict_S) == (False, True)
    _passed(2, "Kleene forces both carriers, all four relation sets singletons, E-S+")


def test_criterion_03_pseudocomplemented():
    # the relation count up to automorphism equivalence is the partition
    # number; the raw maximal sets additionally contain automorphism images
    raw_expected = {1: 1, 2: 4, 3: 27}
    for n, partitions in [(1, 1), (2, 2), (3, 3)]:
        ego = ego_for("pseudo_b", n)
        assert len(ego.carriers) == 1
        assert relation_orbit_count(ego, 0, 0) == partitions
        assert relation_sizes(ego)[(0, 0)] == raw_expected[n]
    for n, expected in [(0, (True, True)), (1, (True, True)),
                        (2, (True, False)), (3, (True, False))]:
        rep = report_for("pseudo_b", n)
        assert (rep.verdict_E, rep.verdict_S) == expected, f"B_{n}"
    _passed(3, "pseudocomplemented: orbit counts 1,2,3 = partition numbers; "
               "B0,B1 preserve, B2,B3 fail S")


def test_criterion_04_goedel():
    ego = ego_for("heyting_chain", 3)
    rels = {frozenset(r.pairs) for r in ego.relations}
    assert rels == {GOEDEL_R1, GOEDEL_R2}
    for n in (3, 4):
        rep = report_for("heyting_chain", n)
        assert (rep.verdict_E, rep.verdict_S) == (True, False), f"C_{n}"
    _passed(4, "Goedel chains: exactly the diagonal and the step relation; E+S-")


def test_criterion_05_mv():
    rep1 = report_for("mv_chain", 1)
    assert (rep1.verdict_E, rep1.verdict_S) == (True, True)
    for k in (2, 3, 4):
        rep = report_for("mv_chain", k)
        assert (rep.verdict_E, rep.verdict_S) == (False, True), f"L_{k}"
        assert all(v == 1 for v in relation_sizes(rep.listing).values())
    rep6 = report_for("mv_chain", 6)
    assert (rep6.verdict_E, rep6.verdict_S) == (False, False)
    assert max(relation_sizes(rep6.listing).values()) > 1
    _passed(5, "MV chains: prime powers keep S, six-element index loses it")


def test_criterion_06_moisil():
    for key in ("moisil_L", "moisil_M"):
        entry = make(key, 3)
        rep = report_for(key, 3)
        assert (rep.verdict_E, rep.verdict_S) == (False, True), key
        assert unique_max_applicable(entry.algebra, entry.spec)
    _passed(6, "Moisil chains classify E-S+ via the unary-operations route")


def test_criterion_07_pre_moisil():
    for n in (2, 3, 4):
        entry = make("pre_moisil_L0", n)
        w = carrier_from_filter(entry.algebra, entry.spec, entry.carriers[0])
        assert sep_condition([entry.algebra], [w]).holds, f"L0_{n}"
    for key, n in [("pre_moisil_L0", 2), ("pre_moisil_L0", 3), ("pre_moisil_M0", 2)]:
        rep = report_for(key, n)
        assert (rep.verdict_E, rep.verdict_S) == (True, True), (key, n)
    _passed(7, "pre-Moisil: first-projection carrier separates; classes preserve")


def _reconstruction_cases():
    cases = []
    for entry, _ in [(make("bool2"), None)] + [
        (e, x) for e, x in __import__("latcop.catalog", fromlist=["table1_suite"]).table1_suite()
    ]:
        if entry.algebra.size <= 10:
            cases.append((entry.constructor, entry.params))
    return sorted(set(cases))


@pytest.mark.parametrize("constructor,params", _reconstruction_cases())
def test_criterion_08_reconstruction_catalog(constructor, params):
    entry = make(constructor, *params)
    res = reveng_priestley(entry.algebra, ego_for(constructor, *params))
    assert res.isomorphism is not None


def test_criterion_08_reconstruction_free():
    for gen_key in ("kleene3", "demorgan4"):
        gen = make(gen_key)
        f1 = free_algebra([gen.algebra], 1)
        res = reveng_priestley(f1, ego_for(gen_key))
        assert res.isomorphism is not None
    _passed(8, "reconstruction quotient matches the prime-filter poset "
               "(all catalog algebras up to size 10 and both rank-1 frees)")


@pytest.mark.parametrize("constructor,params", _reconstruction_cases())
def test_criterion_09_evaluation_catalog(constructor, params):
    entry = make(constructor, *params)
    assert evaluation_check(entry.algebra, ego_for(constructor, *params)).is_isomorphism


def test_criterion_09_evaluation_free():
    for gen_key in ("kleene3", "demorgan4"):
        gen = make(gen_key)
        f1 = free_algebra([gen.algebra], 1)
        assert evaluation_check(f1, ego_for(gen_key)).is_isomorphism
    _passed(9, "evaluation into E(D(-)) is an isomorphism on the same set")


def test_criterion_10_iota_cross_validation():
    dm = make("demorgan4")
    chk = iota_check([dm.algebra], dm.spec, None, [dm.algebra, dm.algebra])
    rep = report_for("demorgan4")
    assert chk.surjective and chk.order_embedding and chk.coproduct_size == 16
    assert (chk.surjective, chk.order_embedding) == (rep.verdict_E, rep.verdict_S)

    k3 = make("kleene3")
    chk = iota_check([k3.algebra], k3.spec, None, [k3.algebra, k3.algebra])
    rep = report_for("kleene3")
    assert chk.order_embedding and not chk.surjective
    assert (chk.surjective, chk.order_embedding) == (rep.verdict_E, rep.verdict_S)
    lam = lambda_map(k3.algebra, ego_for("kleene3"))
    formula_image = tuple(
        sorted(
            (i, j)
            for i in range(len(lam))
            for j in range(len(lam))
            if lam[i][1] & lam[j][1]
        )
    )
    assert chk.image == formula_image

    c3 = make("heyting_chain", 3)
    chk = iota_check([c3.algebra], c3.spec, None, [c3.algebra, c3.algebra])
    rep = report_for("heyting_chain", 3)
    assert chk.surjective and not chk.order_embedding
    assert (chk.surjective, chk.order_embedding) == (rep.verdict_E, rep.verdict_S)
    _passed(10, "iota checks match the flowchart verdicts; the Kleene image "
                "equals the carrier-intersection formula")


# the families in ISP(M) that iota is read on where (M, M) does not serve:
# pseudo_b(3) + pseudo_b(3) stops at the table budget, and on mv_chain(6)'s
# square iota is an order-embedding although S is no
IOTA_FAMILIES = {
    ("pseudo_b(3)", "E"): ("pseudo_b(2)", "pseudo_b(2)"),
    ("pseudo_b(3)", "S"): ("pseudo_b(2)", "pseudo_b(2)"),
    ("mv_chain(6)", "S"): ("mv_chain(2)", "mv_chain(3)"),
}


@pytest.mark.parametrize("entry, expected", table1_suite(), ids=[e.key for e, _ in table1_suite()])
def test_table1_through_iota(entry, expected):
    """Each Table 1 verdict read off the canonical map iota on a named
    family: E by iota's surjectivity, S by iota being an order-embedding.
    A "yes" is checked on the family, a "no" is witnessed by it; a family
    that stops at a budget fails the row."""
    checks: dict = {}  # by family; None is (M, M)
    verdicts = []
    for which in ("E", "S"):
        family = IOTA_FAMILIES.get((entry.key, which))
        if family not in checks:
            members = [make_id(b).algebra for b in family] if family else [entry.algebra] * 2
            try:
                checks[family] = iota_check([entry.algebra], entry.spec, None, members)
            except CapExceeded as exc:
                pytest.fail(f"{entry.key} {which} on {family or 'M + M'}: {exc.budget_note()}")
        chk = checks[family]
        verdicts.append(chk.surjective if which == "E" else chk.order_embedding)
    assert tuple(verdicts) == expected


def test_criterion_11_free_algebras():
    k3 = make("kleene3")
    dm = make("demorgan4")
    f1k = free_algebra([k3.algebra], 1)
    assert f1k.size == 6
    assert free_algebra([dm.algebra], 1).size == 6
    for entry in (dm, k3, make("heyting_chain", 3)):
        assert free_algebra([entry.algebra], 0).size == 2
    f2k = free_algebra([k3.algebra], 2)
    cop = coproduct([k3.algebra], k3.spec, None, [f1k, f1k])
    assert isomorphic(cop.algebra, f2k) is not None
    _passed(11, "free sizes 6/6/2 and the coproduct of two rank-1 frees is "
                "the rank-2 free algebra")


def test_criterion_12_reflector():
    dm = make("demorgan4")
    k3 = make("kleene3")
    enveloping = coproduct([dm.algebra], dm.spec, None, [k3.algebra, k3.algebra])
    reflected = reflector(enveloping.algebra, [k3.algebra])
    native = coproduct([k3.algebra], k3.spec, None, [k3.algebra, k3.algebra])
    assert isomorphic(reflected.algebra, native.algebra) is not None
    _passed(12, "the native Kleene coproduct agrees with the reflected "
                "De Morgan coproduct")


def test_criterion_13_oracle_equivalence():
    # maximal-subuniverse search vs exhaustive subsets on every product of
    # at most 12 elements arising in criteria 1-5
    small = [
        ("kleene3", ()), ("pseudo_b", (0,)), ("pseudo_b", (1,)),
        ("heyting_chain", (3,)), ("mv_chain", (1,)), ("mv_chain", (2,)),
    ]
    squares = 0
    for key, params in small:
        entry = make(key, *params)
        factors = [entry.algebra, entry.algebra]
        square = direct_product(factors)
        assert square.size <= 12
        for w1 in carriers_of(entry.algebra, entry.spec):
            for w2 in carriers_of(entry.algebra, entry.spec):
                allowed = {encode(factors, p) for p in leq_sublattice(w1, w2)}
                assert maximal_subuniverses_in(square, allowed) == \
                    brute_force_maximal_subuniverses(square, allowed)
                squares += 1
    # homomorphism enumeration vs brute force wherever |B|^|A| <= 10^6
    hom_pairs = []
    pool = {
        "demorgan4": make("demorgan4").algebra,
        "kleene3": make("kleene3").algebra,
        "c3": make("heyting_chain", 3).algebra,
        "c4": make("heyting_chain", 4).algebra,
        "b1": make("pseudo_b", 1).algebra,
        "b2": make("pseudo_b", 2).algebra,
        "mv2": make("mv_chain", 2).algebra,
        "mv3": make("mv_chain", 3).algebra,
        "mv6": make("mv_chain", 6).algebra,
    }
    for a, b in itertools.product(pool.values(), repeat=2):
        if a.signature != b.signature or b.size**a.size > 10**6:
            continue
        assert [h.map for h in hom_enumerate(a, b)] == brute_force_homs(a, b)
        hom_pairs.append((a.name, b.name))
    assert squares >= 10 and len(hom_pairs) >= 10
    _passed(13, f"oracle equivalence on {squares} relation squares and "
                f"{len(hom_pairs)} homomorphism pairs")

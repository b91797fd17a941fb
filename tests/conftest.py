"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the code paths they check: homomorphisms by
filtering all maps, a single map by reading every operation instance,
broken order axioms and covering pairs by scanning triples, maximal subuniverses and up-sets by subset enumeration,
least congruences by scanning all partitions, quotient tables by reading
every operation instance, order-isomorphisms by scanning all permutations,
relative congruences by closing the kernels under meets, single
generators by scanning every subalgebra, simplified
generating sets by testing every subalgebra up to isomorphism, the
coproduct's universal property by closing a subalgebra of C x m^K and by
counting each family's mediating maps in Hom(C, m),
relation orbits by applying every pair of automorphisms, the
sublattice (w1, w2)^-1(<=) by listing its pairs, the numbering of
product elements by numpy's multi-index rule, the dual side's lifted
relations, products and reconstruction preorders as sets of point pairs,
E(X) by testing every map of the points into their sorts (and its search
with one watcher per edge end, each union recomputed), direct products
by the subpower kernel, the relation search's preimage masks bit by bit,
the lattice of up-sets of a poset, the unary-operations criterion
for unique maximal relations, the separation table pair by pair, the
symmetry flags by tuple slices, term tables by evaluating one argument
tuple at a time, the lattice identities of a reduct by scanning pairs and
triples (with each named property and its witness checked on its own),
join-irreducibles by folding joins, the Priestley dual by comparing prime
filters as sets, and the canonical map iota on prime filters, which checks
E and S on a family without the relation search.

The paper's other checks are oracles here too, as no command of the
library reads them: the evaluation isomorphism A -> ED(A), lambda on prime
filters, the reflector into a subquasivariety (with congruences and
quotients), condition (C), and relative subdirect irreducibility (membership
by ``in_isp``, then the classification's own test ``classify._rsi``).  So
do the maps that only tests build, ``LatticeHom`` and ``PosetMap``, and
helpers that only tests read: chains and up-sets of posets, poset
isomorphism (``poset_isomorphic``, the map search on the ``up``
encodings), a small generating set (``generating_set``), congruence
blocks as sets, bijectivity, composing or inverting homomorphisms, one
operation instance read from its table (``op``), a prime filter as a map
to 2 and the meet and join tables of a lattice reduct, which the reduct
does not keep (``reduct_tables``, built with ``term_table`` from the spec).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
import pytest

import latcop.algebra
from latcop.algebra import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    Term,
    _charge_tables,
    _check_same_signature,
    _maps,
    _subpower,
    _table_capacity,
    direct_product,
    embeds,
    hom_enumerate,
    hom_set,
    in_isp,
    induced_subalgebra,
    isomorphic,
    subuniverse_closure,
    subuniverses,
    term_table,
)
from latcop.catalog import _LATTICE_SIG, CatalogEntry, make, make_id
from latcop.classify import SUBALGEBRA_SIZE_CAP, _rsi, flowchart_classify, simplify_generators
from latcop.distlat import (
    DistLatticeReduct,
    DReductSpec,
    FinitePoset,
    PrimeFilter,
    _bits,
    _mask,
    d_reduct,
    poset_from_pairs,
    prime_filters,
    priestley_dual,
)
from latcop.duality import EResult, _evaluation, coproduct, e_functor, natural_dual
from latcop.errors import CapExceeded, InternalError, LatcopError, MembershipError
from latcop.piggyback import AlterEgo, _relation_search, build_alter_ego, leq_mask, sep_condition


@lru_cache(maxsize=None)
def ego_for(constructor: str, *params):
    entry = make(constructor, *params)
    return build_alter_ego([entry.algebra], entry.spec)


def fresh_entry(identifier: str) -> CatalogEntry:
    """The catalog entry ``identifier`` on a new copy of its algebra, which
    keeps no hom-sets yet: the catalog's copy keeps those that earlier
    tests enumerated."""
    entry = make_id(identifier)
    return dataclasses.replace(entry, algebra=dataclasses.replace(entry.algebra))


def count_hom_enumerations(monkeypatch) -> list[tuple[str, str]]:
    """The (source, target) names of every ``hom_enumerate`` call from now
    on, in call order; every hom-set is read through ``algebra.hom_set``,
    which calls it on first use."""
    pairs = []
    real = latcop.algebra.hom_enumerate

    def counted(a, b):
        pairs.append((a.name, b.name))
        return real(a, b)

    monkeypatch.setattr(latcop.algebra, "hom_enumerate", counted)
    return pairs


@lru_cache(maxsize=None)
def report_for(constructor: str, *params):
    entry = make(constructor, *params)
    return flowchart_classify([entry.algebra], entry.spec)


@pytest.fixture(scope="session")
def catalog():
    return make


@pytest.fixture(scope="session")
def ego():
    return ego_for


@pytest.fixture(scope="session")
def classified():
    return report_for


# ---------------------------------------------------------------------------
# oracles


def brute_force_homs(a: FiniteAlgebra, b: FiniteAlgebra) -> list[tuple[int, ...]]:
    """All homomorphisms by filtering all |B|^|A| maps (vectorized)."""
    n, m = a.size, b.size
    total = m**n
    assert total <= 10**6, "oracle bound exceeded"
    maps = np.zeros((total, n), dtype=np.int64)
    idx = np.arange(total)
    for pos in range(n - 1, -1, -1):
        maps[:, pos] = idx % m
        idx //= m
    valid = np.ones(total, dtype=bool)
    for (sym, arity, ta), (_, _a, tb) in zip(a.ops(), b.ops()):
        if arity == 0:
            valid &= maps[:, ta[0]] == tb[0]
        elif arity == 1:
            tbv = np.asarray(tb)
            for x in range(n):
                valid &= maps[:, ta[x]] == tbv[maps[:, x]]
        elif arity == 2:
            tbv = np.asarray(tb).reshape(m, m)
            for x in range(n):
                for y in range(n):
                    valid &= maps[:, ta[x * n + y]] == tbv[maps[:, x], maps[:, y]]
        else:  # pragma: no cover - no catalog op has arity > 2
            tbv = np.asarray(tb)
            for args in itertools.product(range(n), repeat=arity):
                fa = ta[a.flat_index(args)]
                bidx = np.zeros(total, dtype=np.int64)
                for z in args:
                    bidx = bidx * m + maps[:, z]
                valid &= maps[:, fa] == tbv[bidx]
    return sorted(tuple(int(v) for v in maps[i]) for i in np.flatnonzero(valid))


def least_injective_hom(a: FiniteAlgebra, b: FiniteAlgebra) -> tuple[int, ...] | None:
    """The least injective homomorphism by map vector, from the brute-force
    list; between equal sizes its existence means a ≅ b."""
    return next((m for m in brute_force_homs(a, b) if len(set(m)) == a.size), None)


def is_hom_by_loop(h: Homomorphism) -> bool:
    """Whether ``h`` lands in its target and commutes with every operation,
    reading each operation instance of the source."""
    a, b = h.source, h.target
    if a.signature != b.signature:
        return False
    if len(h.map) != a.size or not all(0 <= v < b.size for v in h.map):
        return False
    for (_, arity, ta), (_, _, tb) in zip(a.ops(), b.ops()):
        for args in itertools.product(range(a.size), repeat=arity):
            if h.map[ta[a.flat_index(args)]] != tb[b.flat_index([h.map[x] for x in args])]:
                return False
    return True


def order_faults(size: int, rows: tuple[int, ...]) -> set[str]:
    """The partial-order axioms that the relation x <= y iff bit y of
    ``rows[x]`` breaks, by scanning points, pairs and triples."""
    leq = [[bool(rows[x] >> y & 1) for y in range(size)] for x in range(size)]
    points = range(size)
    faults = set()
    if not all(leq[x][x] for x in points):
        faults.add("reflexive")
    if any(x != y and leq[x][y] and leq[y][x] for x in points for y in points):
        faults.add("antisymmetric")
    if any(leq[x][y] and leq[y][z] and not leq[x][z] for x in points for y in points for z in points):
        faults.add("transitive")
    return faults


def brute_force_covers(p: FinitePoset) -> list[tuple[int, int]]:
    """The pairs lo < hi with no point strictly between, in (lo, hi) order."""
    points = range(p.size)
    return [
        (lo, hi) for lo in points for hi in points
        if lo != hi and p.leq(lo, hi)
        and not any(z not in (lo, hi) and p.leq(lo, z) and p.leq(z, hi) for z in points)
    ]


def brute_force_poset_iso(p: FinitePoset, q: FinitePoset) -> tuple[int, ...] | None:
    """The least order-isomorphism by image vector, scanning all permutations."""
    if p.size != q.size:
        return None
    pairs = list(itertools.product(range(p.size), repeat=2))
    for perm in itertools.permutations(range(q.size)):
        if all(p.leq(x, y) == q.leq(perm[x], perm[y]) for x, y in pairs):
            return perm
    return None


_UP_SIG = Signature((("up", 2),))


def _up_algebra(poset: FinitePoset) -> FiniteAlgebra:
    """The poset as an algebra with up(x, y) = y if x <= y else x.

    x <= y exactly when up(x, y) = y, so the bijections that preserve
    ``up`` are the order-isomorphisms.
    """
    r = range(poset.size)
    up = tuple(y if poset.leq(x, y) else x for x in r for y in r)
    return FiniteAlgebra("up", poset.size, _UP_SIG, (up,))


def poset_isomorphic(p: FinitePoset, q: FinitePoset) -> tuple[int, ...] | None:
    """The lexicographically least order-isomorphism p -> q as an image
    vector, or None: the least injective map of the ``up`` encodings."""
    if p.size != q.size:
        return None
    if p.size == 0:
        return ()
    return next(_maps(_up_algebra(p), _up_algebra(q), injective=True), None)


def generating_set(algebra: FiniteAlgebra) -> tuple[int, ...]:
    """A small generating set: greedily add the element giving the largest
    closure growth (ties to the least element)."""
    gens: list[int] = []
    closed = subuniverse_closure(algebra, ())
    while len(closed) < algebra.size:
        best, best_closed = -1, closed
        for x in range(algebra.size):
            if x in closed:
                continue
            trial = subuniverse_closure(algebra, gens + [x])
            if len(trial) > len(best_closed):
                best, best_closed = x, trial
        gens.append(best)
        closed = best_closed
    return tuple(gens)


def upsets(p: FinitePoset) -> list[frozenset[int]]:
    """All up-sets of ``p`` by a stack search that decides everything above
    x before x; deterministic order by (size, sorted tuple)."""
    order = sorted(range(p.size), key=lambda x: p.leq_rows[x].bit_count())  # maximal elements first
    out: list[frozenset[int]] = []
    stack = [(0, 0)]  # (next position in order, bitmask chosen so far)
    while stack:
        i, chosen = stack.pop()
        if i == len(order):
            out.append(frozenset(x for x in range(p.size) if chosen >> x & 1))
            continue
        x = order[i]
        stack.append((i + 1, chosen))
        above = p.leq_rows[x] & ~(1 << x)
        if above & chosen == above:
            stack.append((i + 1, chosen | 1 << x))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_force_upsets(p: FinitePoset) -> list[frozenset[int]]:
    """All up-sets by subset enumeration, ordered like :func:`upsets`."""
    out = []
    for mask in range(1 << p.size):
        s = frozenset(x for x in range(p.size) if mask >> x & 1)
        if all(y in s for x in s for y in range(p.size) if p.leq(x, y)):
            out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def op(algebra: FiniteAlgebra, symbol: str, args=()) -> int:
    """``symbol`` at one argument tuple of ``algebra``, read from its table
    after the arguments are checked to lie in the universe."""
    for a in args:
        if not 0 <= a < algebra.size:
            raise LatcopError(f"argument {a} outside universe of {algebra.name!r}")
    return algebra.table(symbol)[algebra.flat_index(args)]


def filter_value(w: PrimeFilter, x: int) -> int:
    """The prime filter ``w`` as a lattice map to 2."""
    return 1 if x in w.elements else 0


def reduct_tables(lat: DistLatticeReduct) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The meet and join tables of the reduct ``lat``, built with
    ``term_table`` from a spec its algebra validated it under: the reduct
    keeps its order only.  Any such spec gives the same tables, as the
    order fixes the lattice operations."""
    spec = next(spec for spec in lat.carrier._reducts if d_reduct(lat.carrier, spec) == lat)
    return term_table(lat.carrier, spec.meet, 2), term_table(lat.carrier, spec.join, 2)


def lattice_meet(lat: DistLatticeReduct, x: int, y: int) -> int:
    """x meet y in the reduct ``lat``, read from its meet table."""
    return reduct_tables(lat)[0][x * lat.size + y]


def symmetric_by_slices(algebra: FiniteAlgebra) -> tuple[bool, ...]:
    """Per symbol, whether it is binary with each row of its table equal to
    the matching column, compared as tuple slices."""
    n = algebra.size
    return tuple(
        arity == 2 and all(tab[x * n:(x + 1) * n] == tab[x::n] for x in range(n))
        for _, arity, tab in algebra.ops()
    )


def median_chain() -> FiniteAlgebra:
    """The 3-chain with its ternary median ``maj`` beside meet, join, 0, 1,
    plus the ternary term x meet (y join z), which is not symmetric and so
    shows a mix-up of argument order."""
    sig = Signature(
        (("maj", 3), ("lean", 3), ("meet", 2), ("join", 2), ("zero", 0), ("one", 0))
    )
    r = range(3)
    triples = list(itertools.product(r, repeat=3))
    maj = tuple(sorted(t)[1] for t in triples)
    lean = tuple(min(x, max(y, z)) for x, y, z in triples)
    meet = tuple(min(x, y) for x in r for y in r)
    join = tuple(max(x, y) for x in r for y in r)
    return FiniteAlgebra("med3", 3, sig, (maj, lean, meet, join, (0,), (2,)))


def pointwise_tables(coords, elements, signature=None) -> tuple[tuple[int, ...], ...]:
    """Tables of the subalgebra of prod(coords) on the tuples ``elements``
    (a list, order kept), evaluated coordinate by coordinate with
    :func:`op` only.  The empty product needs ``signature``."""
    tables = []
    for sym, arity in (signature or coords[0].signature).symbols:
        tables.append(tuple(
            elements.index(tuple(op(c, sym, [a[i] for a in args]) for i, c in enumerate(coords)))
            for args in itertools.product(elements, repeat=arity)
        ))
    return tuple(tables)


def pointwise_closure(coords, generators, signature=None) -> list[tuple[int, ...]]:
    """Sorted subuniverse of prod(coords) generated by ``generators`` and
    the nullary values, by passes with :func:`op` only: each pass reads the
    argument tuples with an element found in the pass before (old^p x new
    x all^(arity-1-p)), so no tuple is read twice.  The empty product needs
    ``signature``."""
    symbols = (signature or coords[0].signature).symbols

    def value(sym, args):
        return tuple(op(c, sym, [a[i] for a in args]) for i, c in enumerate(coords))

    found = set(generators) | {value(sym, ()) for sym, arity in symbols if not arity}
    old, new = [], sorted(found)
    while new:
        every = old + new
        made = {
            value(sym, args)
            for sym, arity in symbols
            for p in range(arity)
            for args in itertools.product(*[old] * p, new, *[every] * (arity - 1 - p))
        }
        old, new = every, sorted(made - found)
        found |= made
    return sorted(found)


def one_element(signature: Signature) -> FiniteAlgebra:
    """The one-element algebra of ``signature``, named ``1``: every table
    is the single entry 0."""
    return FiniteAlgebra("1", 1, signature, tuple((0,) for _ in signature.symbols))


def product_by_subpower(algebras, signature=None) -> FiniteAlgebra:
    """The direct product with its tables from the subpower kernel: every
    factor tuple, listed row-major, is the given universe.  The empty
    product needs ``signature``."""
    signature = algebras[0].signature if algebras else signature
    tables = _subpower(signature, algebras, list(itertools.product(*(range(a.size) for a in algebras))))
    size = int(np.prod([a.size for a in algebras]))
    return FiniteAlgebra("x".join(a.name for a in algebras) or "1", size, signature, tables)


def universal_by_closure(c: FiniteAlgebra, m: FiniteAlgebra, rows: dict, width: int) -> bool:
    """Whether the rows (y, rows[y]) and the nullary values generate, in
    C x m^width, the graph of a total function on C: the subalgebra is
    closed by :func:`pointwise_closure` and its first column read off."""
    seeds = [(y,) + row for y, row in rows.items()]
    graph = pointwise_closure([c] + [m] * width, seeds)
    return [t[0] for t in graph] == list(range(c.size))


def mediating_map_counts(result, members, m: FiniteAlgebra) -> list[int]:
    """Per homomorphism family (f_1, ..., f_n) from the members into m, in
    the order of their hom-sets' product, the number of homomorphisms
    g: C -> m with g . eps_i = f_i for every i, by filtering Hom(C, m)."""
    homs_c = hom_enumerate(result.algebra, m)
    return [
        sum(
            all(
                tuple(h.map[eps.map[x]] for x in range(b.size)) == f.map
                for b, eps, f in zip(members, result.injections, combo)
            )
            for h in homs_c
        )
        for combo in itertools.product(*[hom_enumerate(b, m) for b in members])
    ]


def is_closed_subset(p: FiniteAlgebra, subset: frozenset[int]) -> bool:
    for sym, arity, tab in p.ops():
        if arity == 0:
            if tab[0] not in subset:
                return False
            continue
        for args in itertools.product(subset, repeat=arity):
            if tab[p.flat_index(args)] not in subset:
                return False
    return True


def brute_force_maximal_subuniverses(
    p: FiniteAlgebra, allowed: set[int]
) -> list[frozenset[int]]:
    """Exhaustive subset enumeration; only for |allowed| small."""
    elems = sorted(allowed)
    consts = set(p.constants())
    closed: list[frozenset[int]] = []
    optional = [x for x in elems if x not in consts]
    if not consts <= allowed:
        return []
    for mask in range(1 << len(optional)):
        s = set(consts)
        for i, x in enumerate(optional):
            if mask >> i & 1:
                s.add(x)
        fs = frozenset(s)
        if fs and is_closed_subset(p, fs):
            closed.append(fs)
    maximal = [s for s in closed if not any(s < t for t in closed)]
    return sorted(set(maximal), key=sorted)


@dataclass(frozen=True)
class IotaCheck:
    family_names: tuple[str, ...]
    tuples: tuple[tuple[int, ...], ...]  # per prime filter of U(coprod)
    surjective: bool
    order_embedding: bool
    image: tuple[tuple[int, ...], ...]
    coproduct_size: int


def iota_check(
    generators: Sequence[FiniteAlgebra],
    spec: DReductSpec,
    omega,
    family: Sequence[FiniteAlgebra],
    **caps,
) -> IotaCheck:
    """The canonical map iota on prime filters: F maps to the tuple of its
    preimages under the coproduct injections; surjective exactly when E
    holds for the family, an order-embedding exactly when S does."""
    cop = coproduct(generators, spec, omega, family, **caps)
    members = list(family)
    uc = d_reduct(cop.algebra, spec)
    pf_c = prime_filters(uc)
    pf_members = []
    for b in members:
        ub = d_reduct(b, spec)
        pf_members.append(prime_filters(ub))
    member_index = [
        {pf.elements: i for i, pf in enumerate(pfs)} for pfs in pf_members
    ]
    tuples = []
    for f in pf_c:
        coords = []
        for bi, (b, eps) in enumerate(zip(members, cop.injections)):
            pre = frozenset(x for x in range(b.size) if eps.map[x] in f.elements)
            if pre not in member_index[bi]:
                raise InternalError("injection preimage of a prime filter is not prime")
            coords.append(member_index[bi][pre])
        tuples.append(tuple(coords))
    all_tuples = set(itertools.product(*[range(len(p)) for p in pf_members]))
    surjective = set(tuples) == all_tuples

    def tuple_leq(t1, t2) -> bool:
        return all(
            pf_members[bi][a].elements <= pf_members[bi][b].elements
            for bi, (a, b) in enumerate(zip(t1, t2))
        )

    embedding = True
    for i, fi in enumerate(pf_c):
        for j, fj in enumerate(pf_c):
            le_filters = fi.elements <= fj.elements
            le_tuples = tuple_leq(tuples[i], tuples[j])
            if le_filters and not le_tuples:
                raise InternalError("iota is not order-preserving")
            if le_tuples and not le_filters:
                embedding = False
    return IotaCheck(
        tuple(b.name for b in members),
        tuple(tuples),
        surjective,
        embedding,
        tuple(sorted(set(tuples))),
        cop.algebra.size,
    )


def eval_term(algebra: FiniteAlgebra, term: Term, args) -> int:
    """``term`` at one argument tuple, one table entry at a time through
    :func:`op`: the oracle of ``term_table``."""
    term.validate(algebra.signature)
    if term.max_var >= len(args):
        raise LatcopError(
            f"term uses x{term.max_var} but only {len(args)} arguments given"
        )
    for a in args:
        if not 0 <= a < algebra.size:
            raise LatcopError(f"argument {a} outside universe of {algebra.name!r}")

    def rec(t: Term) -> int:
        if t.is_var:
            return args[t.head]
        return op(algebra, t.head, [rec(s) for s in t.args])

    return rec(term)


def is_rel_subdirectly_irreducible(algebra: FiniteAlgebra, generators) -> bool:
    """True iff ``algebra`` is subdirectly irreducible relative to
    ISP(generators) (RSI): membership by ``in_isp``, then Gorbunov's test
    as the classification runs it (``classify._rsi``).  Raises
    MembershipError outside the class."""
    if not in_isp(algebra, generators):
        raise MembershipError(
            f"{algebra.name!r} is not in the quasivariety generated by "
            f"{[m.name for m in generators]}"
        )
    return _rsi(algebra, generators)


def check_condition_C(
    m: FiniteAlgebra,
    omega: PrimeFilter,
    spec: DReductSpec,
    ambient=None,
) -> tuple[bool, bool, bool]:
    """The three-part coproduct-preservation check for a candidate (m, omega).

    (i) every relatively subdirectly irreducible algebra of the class embeds
    in m, checked on the simplified generators, in one of which every other
    one embeds; (ii) separation holds for (m, omega); (iii) the subalgebras
    of m^2 below (omega, omega)^-1(<=) have a top element.
    """
    if m.size < 2:
        raise LatcopError("condition (C) needs a nontrivial algebra")
    simplified = simplify_generators(ambient if ambient is not None else [m])
    c1 = all(embeds(s, m) is not None for s in simplified)
    c2 = sep_condition([m], [omega]).holds
    square = direct_product([m, m])
    c3 = _relation_search(square, m.size).root_class(leq_mask(omega, omega)) == 1
    return (c1, c2, c3)


@dataclass(frozen=True)
class EvaluationCheck:
    e_result: EResult
    evaluation: Homomorphism
    is_isomorphism: bool


def evaluation_check(algebra: FiniteAlgebra, ego: AlterEgo) -> EvaluationCheck:
    """The multisorted evaluation map into E(D(algebra)): a maps to the
    morphism sending a dual point x to x(a).  Under separation it is an
    isomorphism."""
    dual = natural_dual(algebra, ego)
    e_res = e_functor(dual)
    points = [x for sort in dual.points for x in sort]
    ev = _evaluation(e_res, algebra, e_res.algebra, points)
    iso = ev.is_valid() and ev.is_injective and e_res.algebra.size == algebra.size
    return EvaluationCheck(e_res, ev, iso)


def lambda_map(algebra: FiniteAlgebra, ego: AlterEgo) -> tuple[tuple[PrimeFilter, frozenset[int]], ...]:
    """For each prime filter f of U(algebra), the carriers w admitting a dual
    point x with w o x = f.  Non-empty throughout when separation holds."""
    lattice = d_reduct(algebra, ego.spec)
    pfs = prime_filters(lattice)
    dual = natural_dual(algebra, ego)
    out = []
    for f in pfs:
        hits = set()
        for wi, w in enumerate(ego.carriers):
            s = ego.sort_index(w.sort)
            for x in dual.points[s]:
                pre = frozenset(a for a in range(algebra.size) if x.map[a] in w.elements)
                if pre == f.elements:
                    hits.add(wi)
                    break
        if not hits:
            raise InternalError(
                "joint surjectivity fails: a prime filter is not realized"
            )
        out.append((f, frozenset(hits)))
    return tuple(out)


@dataclass(frozen=True)
class ReflectorResult:
    algebra: FiniteAlgebra
    quotient_map: Homomorphism
    collapsed: bool  # True when no homomorphisms existed and everything glued


def reflector(algebra: FiniteAlgebra, generators) -> ReflectorResult:
    """Quotient by the least congruence whose quotient lies in
    ISP(generators): the meet of all homomorphism kernels."""
    homs = [h for m in generators for h in hom_enumerate(algebra, m)]
    theta = Congruence.all(algebra.size)
    for h in homs:
        theta = theta.meet(kernel(h))
    q, rho = quotient(algebra, theta)
    q = q.rename(f"R({algebra.name})")
    return ReflectorResult(q, Homomorphism(algebra, q, rho.map), not homs and algebra.size > 1)


def unique_max_applicable(algebra: FiniteAlgebra, spec: DReductSpec) -> bool:
    """True iff every basic operation is either part of the lattice structure
    or a unary (dual) lattice endomorphism of the reduct.

    When this holds, every bounded sublattice containing a subalgebra
    contains a largest one, so each relation set has at most one element: a
    sufficient condition for the relation search's root class to be <= 1.
    """
    lattice = d_reduct(algebra, spec)
    meet_tab = term_table(algebra, spec.meet, 2)
    join_tab = term_table(algebra, spec.join, 2)
    # the reduct's (meet, join) algebra and its order dual: a unary table is
    # a dual endomorphism iff it is a homomorphism from the one to the other
    sig = Signature((("meet", 2), ("join", 2)))
    lat = FiniteAlgebra("L", lattice.size, sig, (meet_tab, join_tab))
    dual = FiniteAlgebra("L^d", lattice.size, sig, (join_tab, meet_tab))
    for sym, arity, tab in algebra.ops():
        if arity == 0:
            if tab[0] not in (lattice.bot, lattice.top):
                return False
        elif arity == 1:
            if not any(Homomorphism(lat, t, tab).is_valid() for t in (lat, dual)):
                return False
        elif arity == 2:
            if tab != meet_tab and tab != join_tab:
                return False
        else:
            return False
    return True


def is_bijective(f) -> bool:
    """Whether the image vector ``f.map`` is a bijection onto ``f.target``."""
    return len(set(f.map)) == len(f.map) == f.target.size


class ImageMap:
    """Injectivity and surjectivity of a map stored as an image vector
    ``map`` into ``target``."""

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.target.size

    @property
    def is_bijective(self) -> bool:
        return is_bijective(self)


@dataclass(frozen=True)
class LatticeHom(ImageMap):
    """A bound-preserving lattice homomorphism between reducts."""

    source: DistLatticeReduct
    target: DistLatticeReduct
    map: tuple[int, ...]

    def __post_init__(self):
        s, t = (
            FiniteAlgebra(r.carrier.name, r.size, _LATTICE_SIG, (*reduct_tables(r), (r.bot,), (r.top,)))
            for r in (self.source, self.target)
        )
        if not Homomorphism(s, t, self.map).is_valid():
            raise LatcopError("map is not a bounded-lattice homomorphism")


@dataclass(frozen=True)
class PosetMap(ImageMap):
    source: FinitePoset
    target: FinitePoset
    map: tuple[int, ...]

    def __post_init__(self):
        # the image of each row must lie in the row of the image
        rows = self.target.leq_rows
        for x, row in enumerate(self.source.leq_rows):
            if _mask(self.map[y] for y in _bits(row)) & ~rows[self.map[x]]:
                raise LatcopError("poset map must be order-preserving")

    @property
    def is_order_embedding(self) -> bool:
        return all(
            self.source.leq(x, y) == self.target.leq(self.map[x], self.map[y])
            for x in range(self.source.size)
            for y in range(self.source.size)
        )


def chain(size: int) -> FinitePoset:
    return poset_from_pairs(size, {(x, y) for x in range(size) for y in range(x, size)})


def poset_product(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    size = p.size * q.size
    pairs = set()
    for x1, x2 in itertools.product(range(p.size), range(q.size)):
        for y1, y2 in itertools.product(range(p.size), range(q.size)):
            if p.leq(x1, y1) and q.leq(x2, y2):
                pairs.add((x1 * q.size + x2, y1 * q.size + y2))
    labels = tuple(
        f"({p.labels[x1]},{q.labels[x2]})"
        for x1 in range(p.size)
        for x2 in range(q.size)
    )
    return poset_from_pairs(size, pairs, labels)


def antichain(size: int) -> FinitePoset:
    return poset_from_pairs(size, set())


def lattice_algebra_from_leq(
    size: int,
    leq,
    name: str,
    element_names: tuple[str, ...] | None = None,
) -> FiniteAlgebra:
    """Build a pure bounded-lattice algebra from a (lattice) order predicate."""
    meet, join = [], []
    for x in range(size):
        for y in range(size):
            lower = [z for z in range(size) if leq(z, x) and leq(z, y)]
            upper = [z for z in range(size) if leq(x, z) and leq(y, z)]
            inf = [z for z in lower if all(leq(w, z) for w in lower)]
            sup = [z for z in upper if all(leq(z, w) for w in upper)]
            if len(inf) != 1 or len(sup) != 1:
                raise LatcopError("order is not a lattice order")
            meet.append(inf[0])
            join.append(sup[0])
    bots = [z for z in range(size) if all(leq(z, w) for w in range(size))]
    tops = [z for z in range(size) if all(leq(w, z) for w in range(size))]
    if len(bots) != 1 or len(tops) != 1:
        raise LatcopError("order has no bounds")
    return FiniteAlgebra(
        name,
        size,
        _LATTICE_SIG,
        (tuple(meet), tuple(join), (bots[0],), (tops[0],)),
        element_names,
    )


def upset_lattice(poset: FinitePoset) -> DistLatticeReduct:
    """K(P): the lattice of up-sets under intersection and union."""
    ups = upsets(poset)
    index = {u: i for i, u in enumerate(ups)}
    n = len(ups)
    labels = tuple(
        "{" + ",".join(poset.labels[x] for x in sorted(u)) + "}" for u in ups
    )
    meet = tuple(index[ups[i] & ups[j]] for i in range(n) for j in range(n))
    join = tuple(index[ups[i] | ups[j]] for i in range(n) for j in range(n))
    algebra = FiniteAlgebra(
        "Up(P)",
        n,
        _LATTICE_SIG,
        (meet, join, (index[frozenset()],), (index[frozenset(range(poset.size))],)),
        labels,
    )
    return d_reduct(algebra, DReductSpec.literal())


def poset_disjoint_union(p: FinitePoset, q: FinitePoset) -> FinitePoset:
    size = p.size + q.size
    pairs = {(x, y) for x in range(p.size) for y in range(p.size) if p.leq(x, y)}
    pairs |= {
        (p.size + x, p.size + y)
        for x in range(q.size)
        for y in range(q.size)
        if q.leq(x, y)
    }
    return poset_from_pairs(size, pairs, p.labels + q.labels)


def dual_of_hom(f: LatticeHom) -> PosetMap:
    """H(f): contravariant, sends a prime filter to its preimage."""
    src_pfs = prime_filters(f.target)
    tgt_pfs = prime_filters(f.source)
    tgt_index = {pf.elements: i for i, pf in enumerate(tgt_pfs)}
    out = []
    for pf in src_pfs:
        pre = frozenset(x for x in range(f.source.size) if f.map[x] in pf.elements)
        if pre not in tgt_index:
            raise LatcopError("preimage of a prime filter is not prime (bad hom)")
        out.append(tgt_index[pre])
    return PosetMap(priestley_dual(f.target), priestley_dual(f.source), tuple(out))


def reconstruction_order_poset(algebra: FiniteAlgebra, ego: AlterEgo) -> FinitePoset:
    """With a single sort, single carrier and a unique relation, the lifted
    relation itself partially orders D(algebra)."""
    if len(ego.sorts) != 1 or len(ego.carriers) != 1 or len(ego.relations) != 1:
        raise LatcopError("single-sort single-carrier unique-relation case only")
    dual = natural_dual(algebra, ego)
    npts = len(dual.points[0])
    pairs = set(pairs_of(dual.relations[0]))
    return poset_from_pairs(npts, pairs, tuple(f"x{i}" for i in range(npts)))


def bounds_preserved(algebra: FiniteAlgebra, spec) -> bool:
    """Every unary basic operation maps {bot, top} into {bot, top}."""
    lattice = d_reduct(algebra, spec)
    bounds = {lattice.bot, lattice.top}
    return all(
        tab[lattice.bot] in bounds and tab[lattice.top] in bounds
        for _, arity, tab in algebra.ops()
        if arity == 1
    )


def _reduct_tables(algebra: FiniteAlgebra, spec: DReductSpec):
    """The spec's meet and join as n x n lists and its bounds, each entry
    read through :func:`eval_term`."""
    r = range(algebra.size)
    meet = [[eval_term(algebra, spec.meet, (x, y)) for y in r] for x in r]
    join = [[eval_term(algebra, spec.join, (x, y)) for y in r] for x in r]
    return meet, join, eval_term(algebra, spec.bot, ()), eval_term(algebra, spec.top, ())


def lattice_identity_failure(algebra: FiniteAlgebra, spec: DReductSpec):
    """The first bounded-distributive-lattice identity the spec's reduct
    breaks, with its witness, by scanning pairs and triples: commutativity
    and absorption over (x, y), then associativity and distributivity x by
    x, each over (y, z) in row-major order, then the bounds; None if every
    identity holds: the oracle of ``d_reduct``'s quadratic check."""
    meet, join, bot, top = _reduct_tables(algebra, spec)
    r = range(algebra.size)
    m = lambda x, y: meet[x][y]  # noqa: E731
    j = lambda x, y: join[x][y]  # noqa: E731
    for identity, holds in (
        ("meet commutativity", lambda x, y: m(x, y) == m(y, x)),
        ("join commutativity", lambda x, y: j(x, y) == j(y, x)),
        ("absorption x^(xvy)=x", lambda x, y: m(x, j(x, y)) == x),
        ("absorption xv(x^y)=x", lambda x, y: j(x, m(x, y)) == x),
    ):
        for x, y in itertools.product(r, repeat=2):
            if not holds(x, y):
                return identity, (x, y)
    for x in r:
        for identity, holds in (
            ("meet associativity", lambda y, z: m(m(x, y), z) == m(x, m(y, z))),
            ("join associativity", lambda y, z: j(j(x, y), z) == j(x, j(y, z))),
            ("distributivity", lambda y, z: m(x, j(y, z)) == j(m(x, y), m(x, z))),
        ):
            for y, z in itertools.product(r, repeat=2):
                if not holds(y, z):
                    return identity, (x, y, z)
    for identity, holds in (("bottom neutral", lambda x: j(x, bot) == x), ("top neutral", lambda x: m(x, top) == x)):
        for x in r:
            if not holds(x):
                return identity, (x,)
    return None


def breaks_lattice_property(algebra: FiniteAlgebra, spec: DReductSpec, identity: str, witness: tuple) -> bool:
    """Whether ``witness`` breaks the property ``d_reduct`` names
    ``identity``, read off the spec's tables, with x <= y meaning x ^ y = x."""
    meet, join, bot, top = _reduct_tables(algebra, spec)
    r = range(algebra.size)
    m = lambda x, y: meet[x][y]  # noqa: E731
    j = lambda x, y: join[x][y]  # noqa: E731
    leq = lambda x, y: m(x, y) == x  # noqa: E731
    return {
        "meet order reflexive": lambda x: not leq(x, x),
        "meet order antisymmetric": lambda x, y: x != y and leq(x, y) and leq(y, x),
        "meet order transitive": lambda x, y, z: leq(x, y) and leq(y, z) and not leq(x, z),
        "join order": lambda x, y: (j(x, y) == y) != leq(x, y),
        "meet is the glb": lambda x, y: any(leq(z, m(x, y)) != (leq(z, x) and leq(z, y)) for z in r),
        "join is the lub": lambda x, y: any(leq(j(x, y), z) != (leq(x, z) and leq(y, z)) for z in r),
        "bottom least": lambda x: not leq(bot, x),
        "top greatest": lambda x: not leq(x, top),
        "distributivity": lambda x, y, z: m(x, j(y, z)) != j(m(x, y), m(x, z)),
    }[identity](*witness)


def join_irreducibles_by_fold(lattice: DistLatticeReduct) -> list[int]:
    """The elements that are not the join of their strict lower set, folding
    the join table over each lower set."""
    join = reduct_tables(lattice)[1]
    out = []
    for x in range(lattice.size):
        acc = lattice.bot
        for y in range(lattice.size):
            if y != x and lattice.leq(y, x):
                acc = join[acc * lattice.size + y]
        if x != lattice.bot and acc != x:
            out.append(x)
    return out


def priestley_dual_by_inclusion(lattice: DistLatticeReduct) -> FinitePoset:
    """H(L) as the prime filters compared pairwise by set inclusion."""
    pfs = prime_filters(lattice)
    rows = tuple(_mask(j for j, fj in enumerate(pfs) if fi.elements <= fj.elements) for fi in pfs)
    return FinitePoset(len(pfs), rows, tuple(lattice.element_name(f.generator) for f in pfs))


def sep_by_loop(generators, omega) -> tuple[bool, tuple[int, int, int] | None]:
    """The separation condition as (holds, witness), pair by pair: the first
    (i, a, b), a < b, of generator i that no w o u splits, u in
    hom(generators[i], w.sort) and w in ``omega``."""
    gens = list(generators)
    homs = [[(w, u) for w in omega for u in hom_enumerate(m, w.sort)] for m in gens]
    for i, m in enumerate(gens):
        for a in range(m.size):
            for b in range(a + 1, m.size):
                if not any(filter_value(w, u.map[a]) != filter_value(w, u.map[b]) for w, u in homs[i]):
                    return False, (i, a, b)
    return True, None


def separation_masks_by_loop(gens, carriers) -> list[int]:
    """Per carrier w, the bitmask over the pairs (i, a, b), a < b, in
    generator-then-element order, of those that w o u splits for some u in
    hom(gens[i], w.sort): every hom scanned for every pair."""
    pairs = [(i, a, b) for i, m in enumerate(gens) for a, b in itertools.combinations(range(m.size), 2)]
    return [
        sum(
            1 << k
            for k, (i, a, b) in enumerate(pairs)
            if any(
                filter_value(w, u.map[a]) != filter_value(w, u.map[b])
                for u in hom_set(gens[i], w.sort)
            )
        )
        for w in carriers
    ]


def minimal_omega_by_sep(generators, carriers):
    """The minimum separating carrier set as (omega, size, alternatives,
    smaller sizes failed), by calling ``sep_by_loop`` on every
    combination of ``carriers`` in increasing size."""
    failed = []
    for size in range(1, len(carriers) + 1):
        winners = [
            combo
            for combo in itertools.combinations(carriers, size)
            if sep_by_loop(generators, combo)[0]
        ]
        if winners:
            return winners[0], size, len(winners) - 1, tuple(failed)
        failed.append(size)
    return None


class IncompatiblePartition(LatcopError):
    """A partition is not compatible with the operation tables."""


@dataclass(frozen=True)
class Congruence:
    """A partition of ``0..n-1`` as a block-index vector.

    Block numbering is canonical: blocks are numbered by first occurrence,
    so equal partitions compare equal as tuples.
    """

    blocks: tuple[int, ...]

    @staticmethod
    def canonical(n: int, raw) -> "Congruence":
        """The partition of ``0..n-1`` putting x and y together iff raw[x] == raw[y]."""
        relabel: dict = {}
        out = []
        for x in range(n):
            b = raw[x]
            if b not in relabel:
                relabel[b] = len(relabel)
            out.append(relabel[b])
        return Congruence(tuple(out))

    @staticmethod
    def diagonal(n: int) -> "Congruence":
        return Congruence(tuple(range(n)))

    @staticmethod
    def all(n: int) -> "Congruence":
        return Congruence((0,) * n)

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def num_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def together(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def meet(self, other: "Congruence") -> "Congruence":
        """Intersection as relations (the common refinement)."""
        return Congruence.canonical(self.size, list(zip(self.blocks, other.blocks)))


def quotient(algebra: FiniteAlgebra, theta: Congruence) -> tuple[FiniteAlgebra, Homomorphism]:
    """Quotient algebra on blocks plus the natural surjection; the tables are
    read at each block's first element, and theta is compatible exactly when
    the block map is a homomorphism onto them.  Any block labels are read,
    renumbered by first occurrence."""
    if theta.size != algebra.size:
        raise IncompatiblePartition("partition size disagrees with universe")
    theta = Congruence.canonical(algebra.size, theta.blocks)
    nb = theta.num_blocks
    reps = [theta.blocks.index(b) for b in range(nb)]
    tables = tuple(
        tuple(
            theta.blocks[tab[algebra.flat_index([reps[b] for b in key])]]
            for key in itertools.product(range(nb), repeat=arity)
        )
        for _, arity, tab in algebra.ops()
    )
    q = FiniteAlgebra(f"{algebra.name}/~", nb, algebra.signature, tables)
    rho = Homomorphism(algebra, q, theta.blocks)
    if not rho.is_valid():
        raise IncompatiblePartition(
            f"partition {theta.blocks} is not compatible with {algebra.name!r}"
        )
    return q, rho


def congruence_generated(algebra: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least compatible equivalence containing ``pairs``, by saturation."""
    n = algebra.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise LatcopError("pair outside universe")
        union(a, b)
    ops = [(arity, tab) for _, arity, tab in algebra.ops() if arity > 0]
    changed = True
    while changed:
        changed = False
        for arity, tab in ops:
            groups: dict[tuple[int, ...], int] = {}
            for args in itertools.product(range(n), repeat=arity):
                key = tuple(find(a) for a in args)
                res = tab[algebra.flat_index(args)]
                prev = groups.get(key)
                if prev is None:
                    groups[key] = res
                elif union(prev, res):
                    changed = True
    return Congruence.canonical(n, [find(x) for x in range(n)])


def compatible_blocks(algebra: FiniteAlgebra, theta: Congruence) -> tuple[tuple[int, ...], ...] | None:
    """Block tables if theta is compatible, else None."""
    nb = theta.num_blocks
    reps = [-1] * nb
    for x, bidx in enumerate(theta.blocks):
        if reps[bidx] == -1:
            reps[bidx] = x
    tables = []
    for sym, arity, tab in algebra.ops():
        entries = {}
        for args in itertools.product(range(algebra.size), repeat=arity):
            key = tuple(theta.blocks[a] for a in args)
            res = theta.blocks[tab[algebra.flat_index(args)]]
            if key in entries and entries[key] != res:
                return None
            entries[key] = res
        flat = []
        for key in itertools.product(range(nb), repeat=arity):
            flat.append(entries[key])
        tables.append(tuple(flat))
    return tuple(tables)


def all_partitions(n: int):
    """All partitions of 0..n-1 as canonical block-index vectors."""

    def rec(i: int, blocks: list[int], nb: int):
        if i == n:
            yield tuple(blocks)
            return
        for b in range(nb + 1):
            blocks.append(b)
            yield from rec(i + 1, blocks, nb + 1 if b == nb else nb)
            blocks.pop()

    yield from rec(0, [], 0)


def compose(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    """outer after inner."""
    assert inner.target == outer.source, "composition mismatch"
    return Homomorphism(inner.source, outer.target, tuple(outer.map[v] for v in inner.map))


def inverse(h: Homomorphism) -> Homomorphism:
    """The inverse of a bijective homomorphism."""
    assert is_bijective(h), "only bijections can be inverted"
    inv = [0] * h.target.size
    for x, y in enumerate(h.map):
        inv[y] = x
    return Homomorphism(h.target, h.source, tuple(inv))


def block_sets(theta: Congruence) -> tuple[frozenset[int], ...]:
    """The blocks of ``theta`` as sets, in block-number order."""
    sets: list[set[int]] = [set() for _ in range(theta.num_blocks)]
    for x, b in enumerate(theta.blocks):
        sets[b].add(x)
    return tuple(frozenset(s) for s in sets)


def kernel(h: Homomorphism) -> Congruence:
    """The partition of h's source into the fibres of h."""
    return Congruence.canonical(h.source.size, h.map)


def relative_congruences(algebra: FiniteAlgebra, generators) -> list[Congruence]:
    """Congruences theta with algebra/theta in ISP(generators).

    Computed as the homomorphism kernels closed under pairwise meets, plus
    the one-block congruence; sorted canonically by block vector.
    """
    for m in generators:
        _check_same_signature(algebra, m)
    found: set[Congruence] = {Congruence.all(algebra.size)}
    kernels = []
    for m in generators:
        for h in hom_enumerate(algebra, m):
            k = kernel(h)
            if k not in found:
                found.add(k)
                kernels.append(k)
    frontier = list(found)
    while frontier:
        theta = frontier.pop()
        for k in kernels:
            m = theta.meet(k)
            if m not in found:
                found.add(m)
                frontier.append(m)
    return sorted(found, key=lambda c: c.blocks)


def rsi_by_definition(algebra: FiniteAlgebra, generators) -> bool:
    """Relative subdirect irreducibility from the definition: the relative
    congruences other than the diagonal meet above the diagonal."""
    diag = Congruence.diagonal(algebra.size)
    cur = Congruence.all(algebra.size)
    for c in relative_congruences(algebra, generators):
        if c != diag:
            cur = cur.meet(c)
    return cur != diag


def subalgebras_up_to_iso(generators, size_cap=SUBALGEBRA_SIZE_CAP) -> list[FiniteAlgebra]:
    """All nontrivial subalgebras of the generators, up to isomorphism.

    Deterministic order: by (size, generator index, element tuple).
    """
    for m in generators:
        if m.size > size_cap:
            raise CapExceeded(
                f"subalgebra enumeration needs generator size <= {size_cap}, "
                f"got {m.size}",
                required=m.size, stage="subalgebra enumeration", budget=size_cap,
            )
    candidates: list[tuple[int, int, tuple[int, ...], FiniteAlgebra]] = []
    for mi, m in enumerate(generators):
        for elems in subuniverses(m):
            if len(elems) < 2:
                continue
            sub, order = induced_subalgebra(m, elems)
            candidates.append((len(elems), mi, tuple(sorted(elems)), sub))
    candidates.sort(key=lambda t: t[:3])
    kept: list[FiniteAlgebra] = []
    for _, _, _, sub in candidates:
        if all(isomorphic(sub, s) is None for s in kept):
            kept.append(sub)
    return kept


def simplify_by_enumeration(generators, size_cap=SUBALGEBRA_SIZE_CAP) -> list[FiniteAlgebra]:
    """``simplify_generators`` by enumerating every subalgebra: the RSI
    ones up to isomorphism, each dropped when it embeds in a later one."""
    ambient = [m for m in generators if m.size > 1]
    if not generators:
        raise LatcopError("empty generating set")
    if not ambient:
        return []
    rsi = [
        s
        for s in subalgebras_up_to_iso(ambient, size_cap)
        if is_rel_subdirectly_irreducible(s, ambient)
    ]
    # the list runs by size and holds one algebra per isomorphism type, so
    # only a later member can hold an earlier one
    kept = [s for i, s in enumerate(rsi) if all(embeds(s, t) is None for t in rsi[i + 1 :])]
    for m in ambient:
        if not in_isp(m, kept):
            raise InternalError("simplified set lost a generator")
    for s in kept:
        if not in_isp(s, ambient):
            raise InternalError("simplified set escapes the class")
    return kept


def scan_single_generator(generators, size_cap=SUBALGEBRA_SIZE_CAP):
    """A single generator by scanning every subalgebra of the generators
    smallest-first, then trying the direct product of the generators."""
    gens = list(generators)
    if not gens:
        return None
    for cand in subalgebras_up_to_iso(gens, size_cap):
        if all(in_isp(m, [cand]) for m in gens):
            return cand
    if len(gens) == 1:
        return None
    prod = direct_product(gens)
    if all(in_isp(m, [prod]) for m in gens):
        return prod
    return None


def relation_sizes(source) -> dict[tuple[int, int], int | None]:
    """|R(w_i, w_j)| per ordered carrier pair (i, j), read off an alter
    ego or off a report's ``listing``, where a pair whose listing stopped
    has None."""
    listing = source if isinstance(source, dict) else {ij: source.relations_for(*ij) for ij in source.pairs()}
    return {ij: None if isinstance(v, CapExceeded) else len(v) for ij, v in listing.items()}


def relation_orbit_count(ego: AlterEgo, omega1: int, omega2: int) -> int:
    """Number of relations in R_{omega1,omega2} up to independent
    automorphism action on the two coordinates.

    This is the count of genuinely different relations; raw maximal sets
    also contain the images of each relation under automorphism pairs.
    """
    rels = ego.relations_for(omega1, omega2)
    if not rels:
        return 0
    m1 = ego.sorts[rels[0].sort1]
    m2 = ego.sorts[rels[0].sort2]
    autos1 = [h for h in hom_enumerate(m1, m1) if is_bijective(h)]
    autos2 = [h for h in hom_enumerate(m2, m2) if is_bijective(h)]
    seen: set[frozenset[tuple[int, int]]] = set()
    orbits = 0
    for r in rels:
        ps = frozenset(r.pairs)
        if ps in seen:
            continue
        orbits += 1
        for s in autos1:
            for t in autos2:
                seen.add(frozenset((s.map[a], t.map[b]) for a, b in ps))
    return orbits


def leq_sublattice(w1: PrimeFilter, w2: PrimeFilter) -> frozenset[tuple[int, int]]:
    """All pairs (a, b) with w1(a) <= w2(b): everything except
    (a in filter1, b not in filter2)."""
    return frozenset(
        (a, b)
        for a in range(w1.sort.size)
        for b in range(w2.sort.size)
        if not (a in w1.elements and b not in w2.elements)
    )


def preimage_masks(table, n: int) -> list[int]:
    """For each value z < n, the mask of flat input indices mapped to z,
    set bit by bit."""
    width = (len(table) + 7) // 8
    buffers = [bytearray(width) for _ in range(n)]
    for i, z in enumerate(table):
        buffers[z][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(b, "little") for b in buffers]


def encode(factors: Iterable[FiniteAlgebra], parts: Iterable[int]) -> int:
    """The element of ``direct_product(factors)`` that is the tuple
    ``parts``: row-major, leftmost factor most significant, spelled out by
    numpy's own multi-index rule."""
    return int(np.ravel_multi_index(tuple(parts), [f.size for f in factors]))


def decode(factors: Iterable[FiniteAlgebra], x: int) -> tuple[int, ...]:
    """The factor tuple of element ``x`` of ``direct_product(factors)``."""
    return tuple(int(i) for i in np.unravel_index(x, [f.size for f in factors]))


# ---------------------------------------------------------------------------
# the dual side, with each relation a set of pairs


def pairs_of(rows: Iterable[int]) -> frozenset[tuple[int, int]]:
    """The pairs (i, j) with bit j of ``rows[i]`` set."""
    return frozenset((i, j) for i, row in enumerate(rows) for j in range(row.bit_length()) if row >> j & 1)


def lift_by_pairs(algebra: FiniteAlgebra, ego: AlterEgo, points) -> tuple[frozenset[tuple[int, int]], ...]:
    """``natural_dual``'s lifted relations: homomorphisms x, y are related
    iff (x(a), y(a)) lies in the relation for every element a."""
    lifted = []
    for rel in ego.relations:
        pairs = frozenset(rel.pairs)
        lifted.append(frozenset(
            (i, j)
            for i, x in enumerate(points[rel.sort1])
            for j, y in enumerate(points[rel.sort2])
            if all((x.map[a], y.map[a]) in pairs for a in range(algebra.size))
        ))
    return tuple(lifted)


def product_by_pairs(structures, ego: AlterEgo):
    """``structure_product``'s lifted relations as pair sets and its lifted
    operations, with each product point numbered by the position of its
    factor index tuple in ``itertools.product`` order."""
    parts = [
        list(itertools.product(*[range(len(x.points[s])) for x in structures]))
        for s in range(len(ego.sorts))
    ]
    factor_pairs = [[pairs_of(rows) for rows in x.relations] for x in structures]
    relations = tuple(
        frozenset(
            (i, j)
            for i, di in enumerate(parts[rel.sort1])
            for j, dj in enumerate(parts[rel.sort2])
            if all((a, b) in f[ri] for f, a, b in zip(factor_pairs, di, dj))
        )
        for ri, rel in enumerate(ego.relations)
    )
    operations = []
    for gi, g in enumerate(ego.operations):
        index = {d: k for k, d in enumerate(parts[ego.sort_index(g.target)])}
        operations.append(tuple(
            index[tuple(x.operations[gi][a] for x, a in zip(structures, di))]
            for di in parts[ego.sort_index(g.source)]
        ))
    return relations, tuple(operations)


def morphisms_by_maps(structure) -> list[tuple[int, ...]]:
    """E(X)'s elements, sorted: every map of the points, in sort-major
    order, into their sorts, kept when it sends each lifted pair into its
    relation and commutes with each lifted operation."""
    ego = structure.ego
    order = [(s, i) for s, sort in enumerate(structure.points) for i in range(len(sort))]
    pos = {p: k for k, p in enumerate(order)}
    checks = [
        (pos[(rel.sort1, i)], pos[(rel.sort2, j)], frozenset(rel.pairs))
        for rel, lifted in zip(ego.relations, structure.relations)
        for i, j in pairs_of(lifted)
    ] + [
        (pos[(ego.sort_index(g.source), i)], pos[(ego.sort_index(g.target), j)], frozenset(enumerate(g.map)))
        for g, image in zip(ego.operations, structure.operations)
        for i, j in enumerate(image)
    ]
    maps = itertools.product(*[range(ego.sorts[s].size) for s, _ in order])
    return [v for v in maps if all((v[p], v[q]) in pairs for p, q, pairs in checks)]


def e_search_by_reference(structure, visit_cap: int) -> tuple[list[tuple[int, ...]], int]:
    """``duality.e_functor``'s search without grouped watchers or memoized
    unions: one watcher (q, table) per edge end, each recomputing its
    table's union over the popped point's domain bit by bit, and a pivot
    scan from point 0 at every node.  Returns the solutions, in
    search order, and the number of visits (propagated nodes that did not
    fail); raises like ``e_functor`` at the visit cap and the table charge."""
    ego = structure.ego
    sig = ego.sorts[0].signature
    most = _table_capacity(sig)
    sort_of = [s for s, sort in enumerate(structure.points) for _ in sort]
    nvars = len(sort_of)
    full = [(1 << ego.sorts[s].size) - 1 for s in sort_of]
    start = list(itertools.accumulate(map(len, structure.points), initial=0))
    constraints = [(rel.sort1, rel.sort2, rel.rows, lifted) for rel, lifted in zip(ego.relations, structure.relations)]
    constraints += [
        (ego.sort_index(g.source), ego.sort_index(g.target), tuple(1 << b for b in g.map), tuple(1 << j for j in image))
        for g, image in zip(ego.operations, structure.operations)
    ]
    watchers: list[list] = [[] for _ in range(nvars)]
    for s1, s2, fwd, lifted in constraints:
        bwd = [0] * ego.sorts[s2].size
        for a, row in enumerate(fwd):
            for b in _bits(row):
                bwd[b] |= 1 << a
        for i, row in enumerate(lifted):
            for j in _bits(row):
                p, q = start[s1] + i, start[s2] + j
                watchers[p].append((q, fwd))
                watchers[q].append((p, bwd))

    def propagate(dom: list[int], queue: list[int]) -> bool:
        while queue:
            p = queue.pop()
            for q, table in watchers[p]:
                allowed = 0
                v = dom[p]
                while v:
                    b = v & -v
                    allowed |= table[b.bit_length() - 1]
                    v ^= b
                newdom = dom[q] & allowed
                if newdom != dom[q]:
                    if newdom == 0:
                        return False
                    dom[q] = newdom
                    queue.append(q)
        return True

    solutions: list[tuple[int, ...]] = []
    visits = 0
    dom0 = list(full)
    stack = [(dom0, -1, 0)] if propagate(dom0, list(range(nvars))) else []
    while stack:
        dom, pivot, bit = stack.pop()
        if pivot != -1:
            dom = list(dom)
            dom[pivot] = bit
            if not propagate(dom, [pivot]):
                continue
        visits += 1
        if visits > visit_cap:
            raise CapExceeded(
                f"E-functor enumeration exceeded {visit_cap} visited assignments",
                required=visits, stage="E-functor search", budget=visit_cap,
            )
        pivot = next((k for k in range(nvars) if dom[k] & (dom[k] - 1)), -1)
        if pivot == -1:
            solutions.append(tuple(d.bit_length() - 1 for d in dom))
            if len(solutions) > most:
                _charge_tables(sig, len(solutions))
            continue
        mask = dom[pivot]
        while mask:
            bit = 1 << (mask.bit_length() - 1)
            mask ^= bit
            stack.append((dom, pivot, bit))
    return solutions, visits


def reconstruction_rows_by_triples(ego: AlterEgo, dual) -> list[int]:
    """``reveng_priestley``'s preorder rows over (sort, point, carrier) in
    carrier-major order: (p, w1) lies below (q, w2) iff (p, q) is in the
    lift of some relation labelled (w1, w2)."""
    elements = [
        (ego.sort_index(w.sort), p, wi)
        for wi, w in enumerate(ego.carriers)
        for p in range(len(dual.points[ego.sort_index(w.sort)]))
    ]
    rel_by_label: dict[tuple[int, int], list[int]] = {}
    for ri, rel in enumerate(ego.relations):
        rel_by_label.setdefault((rel.omega1, rel.omega2), []).append(ri)
    lifted = [pairs_of(rows) for rows in dual.relations]
    rows = []
    for (_, p, w1) in elements:
        row = 0
        for k, (_, q, w2) in enumerate(elements):
            for ri in rel_by_label.get((w1, w2), ()):
                if (p, q) in lifted[ri]:
                    row |= 1 << k
                    break
        rows.append(row)
    return rows

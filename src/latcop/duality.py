"""The natural hom-functors at finite scale.

D sends an algebra to its multisorted dual (one sort of points per
generator, points are homomorphisms); E sends a structure back to the
algebra of its structure-preserving maps into the alter ego.  Coproducts are
computed as E of a product of duals, free algebras
(:func:`~latcop.algebra.free_algebra`) as E of a power of the alter ego,
and the Priestley dual of the lattice reduct is recovered from the natural
dual via the carrier-indexed preorder.
The points of D(A) in the sort of M are hom(A, M), kept on A
(``algebra.hom_set``), so each hom-set is enumerated once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import algebra as algebra_module
from .algebra import (
    DEFAULT_POINTS_CAP,
    FIGURE_CEILING,
    FiniteAlgebra,
    Homomorphism,
    _bounded,
    _charge_tables,
    _extends_to_hom,
    _relabel,
    _separated,
    _subpower,
    _table_capacity,
    hom_set,
)
from .distlat import (
    DReductSpec,
    FinitePoset,
    _bits,
    _mask,
    _preorder_fault,
    _union,
    d_reduct,
    poset_from_pairs,
    priestley_dual,
    prime_filters,
)
from .errors import CapExceeded, InternalError, LatcopError, MembershipError
from .piggyback import AlterEgo, build_alter_ego

# assignments one E-functor search may visit
VISIT_BUDGET = 10**7


@dataclass(frozen=True)
class MultisortedStructure:
    """A finite structure over an alter ego's sorts.

    ``points`` holds, per sort, the carrier (homomorphisms for duals, tuples
    for products), numbered sort-major as a whole: point i of sort s follows
    the points of the sorts before s.  ``relations`` and ``operations`` are
    index-based lifts aligned with the ego's relation and operation lists:
    a relation as bitmask rows like :class:`~latcop.piggyback.SortedRelation`'s
    (row i the points of sort2 related to point i of sort1), an operation as
    the index of each source point's image.
    """

    ego: AlterEgo
    points: tuple[tuple, ...]
    relations: tuple[tuple[int, ...], ...]
    operations: tuple[tuple[int, ...], ...]

    @property
    def point_count(self) -> int:
        return sum(len(p) for p in self.points)


def natural_dual(algebra: FiniteAlgebra, ego: AlterEgo) -> MultisortedStructure:
    """D(algebra): sorts are the hom-sets into the generators, checked to
    separate points (membership), relations and operations lifted
    pointwise."""
    points = tuple(tuple(hom_set(algebra, m)) for m in ego.sorts)
    if not _separated(algebra, itertools.chain.from_iterable(points)):
        raise MembershipError(
            f"{algebra.name!r} is not in the quasivariety generated by the sorts"
        )
    relations = [
        tuple(
            _mask(
                j for j, y in enumerate(points[rel.sort2])
                if all(rel.rows[u] >> v & 1 for u, v in zip(x.map, y.map))
            )
            for x in points[rel.sort1]
        )
        for rel in ego.relations
    ]
    operations = []
    for g in ego.operations:
        index = {h.map: k for k, h in enumerate(points[ego.sort_index(g.target)])}
        sources = points[ego.sort_index(g.source)]
        operations.append(tuple(index[tuple(g.map[v] for v in x.map)] for x in sources))
    return MultisortedStructure(ego, points, tuple(relations), tuple(operations))


def structure_product(
    structures: Sequence[MultisortedStructure],
    points_cap: int = DEFAULT_POINTS_CAP,
    ego: AlterEgo | None = None,
) -> MultisortedStructure:
    """Cartesian product of structures over one alter ego (one object, as
    alter egos compare by identity), lifted componentwise; the empty
    product (one empty-tuple point per sort, all relation instances
    holding vacuously) needs the ego passed explicitly.
    Points are numbered row-major, the leftmost factor most significant, so
    a lifted relation's rows are the Kronecker product of the factors' rows."""
    if structures:
        ego = structures[0].ego
        for x in structures[1:]:
            if x.ego is not ego:
                raise LatcopError("structure product requires a common alter ego")
    elif ego is None:
        raise LatcopError("the empty structure product needs an explicit ego")
    nsorts = len(ego.sorts)
    counts = []
    for s in range(nsorts):
        count = 1
        for x in structures:
            count = _bounded(count * len(x.points[s]), 1, points_cap)
        counts.append(count)
    _check_points(counts, points_cap, len(structures))
    points = tuple(
        tuple(itertools.product(*[x.points[s] for x in structures]))
        for s in range(nsorts)
    )
    relations = []
    for ri, rel in enumerate(ego.relations):
        rows = (1,)
        for x in structures:
            n2 = len(x.points[rel.sort2])
            rows = tuple(sum(q << (b * n2) for b in _bits(r)) for r in rows for q in x.relations[ri])
        relations.append(rows)
    operations = []
    for gi, g in enumerate(ego.operations):
        image = (0,)
        for x in structures:
            n2 = len(x.points[ego.sort_index(g.target)])
            image = tuple(t * n2 + v for t in image for v in x.operations[gi])
        operations.append(image)
    return MultisortedStructure(ego, points, tuple(relations), tuple(operations))


def _check_points(counts: Sequence[int], points_cap: int, factors: int) -> None:
    """CapExceeded at the first sort whose point count, as ``_bounded``
    gives it, exceeds ``points_cap``; then, before any point is listed,
    when the point tuples, of ``factors`` entries each, would hold more
    than ``TABLE_ENTRY_BUDGET`` entries in all."""
    budget = algebra_module.TABLE_ENTRY_BUDGET  # read at call time
    checks = [(count, points_cap, f"points in sort {s}, cap is {points_cap}") for s, count in enumerate(counts)]
    for need, limit, what in checks + [(sum(counts) * factors, budget, f"point entries, budget is {budget}")]:
        if need > limit:
            required = min(need, FIGURE_CEILING)
            raise CapExceeded(
                f"product structure needs {required}{'+' * (need >= FIGURE_CEILING)} {what}",
                required=required, stage="structure product", budget=limit,
            )


# ---------------------------------------------------------------------------
# the E functor


@dataclass(frozen=True)
class EResult:
    """E(X) together with the morphisms realizing its elements."""

    algebra: FiniteAlgebra
    morphisms: tuple[tuple[int, ...], ...]  # value per point, sort-major


def e_functor(structure: MultisortedStructure) -> EResult:
    """E(X): all sort-preserving maps into the alter ego respecting every
    lifted relation and operation, found by backtracking with forward
    propagation over candidate-value bitmasks; the algebra is structured
    pointwise from the sorts.

    Each point's watchers are grouped by direction table, so a point taken
    off the propagation queue reads each table once, through a memo of its
    unions over candidate masks that all points share (at most 2^|M|
    entries per table), and then narrows every point watched through it.
    Every point up to a node's pivot is a singleton in its children, so
    they look for their own pivot after it.  Each solution is charged
    against the table entries the algebra will need, so CapExceeded (stage
    'table build') comes as soon as there are more solutions than tables
    can be built for; CapExceeded (stage 'E-functor search') past
    ``VISIT_BUDGET`` visits."""
    ego = structure.ego
    sig = ego.sorts[0].signature
    most = _table_capacity(sig)
    sort_of = [s for s, sort in enumerate(structure.points) for _ in sort]
    nvars = len(sort_of)
    full = [(1 << ego.sorts[s].size) - 1 for s in sort_of]
    start = list(itertools.accumulate(map(len, structure.points), initial=0))  # each sort's first point

    # one edge per related pair of points, watched from both ends through the
    # value -> allowed-mask table of its direction: a relation's rows and
    # their transpose; an operation constrains like the graph of its map.
    # groups[p] maps each table to the points watched from p through it
    constraints = [(rel.sort1, rel.sort2, rel.rows, lifted) for rel, lifted in zip(ego.relations, structure.relations)]
    constraints += [
        (ego.sort_index(g.source), ego.sort_index(g.target), tuple(1 << b for b in g.map), tuple(1 << j for j in image))
        for g, image in zip(ego.operations, structure.operations)
    ]
    groups: list[dict] = [{} for _ in range(nvars)]
    for s1, s2, fwd, lifted in constraints:
        bwd = [0] * ego.sorts[s2].size
        for a, row in enumerate(fwd):
            for b in _bits(row):
                bwd[b] |= 1 << a
        fwd, bwd = tuple(fwd), tuple(bwd)
        for i, row in enumerate(lifted):
            for j in _bits(row):
                p, q = start[s1] + i, start[s2] + j
                groups[p].setdefault(fwd, []).append(q)
                groups[q].setdefault(bwd, []).append(p)
    memos: dict = {}  # per table, the union of its rows over each mask met
    watchers = [
        [(memos.setdefault(table, {}), table, tuple(qs)) for table, qs in group.items()]
        for group in groups
    ]

    def propagate(dom: list[int], queue: list[int]) -> bool:
        while queue:
            p = queue.pop()
            v = dom[p]
            for memo, table, qs in watchers[p]:
                try:
                    allowed = memo[v]
                except KeyError:
                    allowed = memo[v] = _union(table, _bits(v))
                for q in qs:
                    newdom = dom[q] & allowed
                    if newdom != dom[q]:
                        if newdom == 0:
                            return False
                        dom[q] = newdom
                        queue.append(q)
        return True

    # depth first on an explicit stack; an entry (dom, pivot, bit) is the
    # child of dom with pivot fixed to bit, propagated when popped, and
    # each propagated node counts as one visit.  Propagation keeps a
    # singleton a singleton, so a child's points up to its parent's pivot
    # are all singletons and its own pivot lies after that one.  ``value``
    # reads a singleton mask: its keys are exactly the singletons
    value = {1 << b: b for b in range(max(m.size for m in ego.sorts))}
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
        if visits > VISIT_BUDGET:
            raise CapExceeded(
                f"E-functor enumeration exceeded {VISIT_BUDGET} visited assignments",
                required=visits, stage="E-functor search", budget=VISIT_BUDGET,
            )
        pivot += 1
        while pivot < nvars and dom[pivot] in value:
            pivot += 1
        if pivot == nvars:
            solutions.append(tuple(map(value.__getitem__, dom)))
            if len(solutions) > most:
                _charge_tables(sig, len(solutions))
            continue
        mask = dom[pivot]
        while mask:  # highest bit first, so the lowest is popped first
            bit = 1 << (mask.bit_length() - 1)
            mask ^= bit
            stack.append((dom, pivot, bit))

    if not solutions:
        raise LatcopError("E(X) is empty: the structure admits no morphisms")
    # a leaf is propagated to a fixpoint with every domain a singleton, so it
    # satisfies every edge; the pointwise algebra raises unless E(X) is closed
    tables = _subpower(sig, [ego.sorts[s] for s in sort_of], solutions)
    algebra = FiniteAlgebra("E(X)", len(solutions), sig, tables)
    return EResult(algebra, tuple(solutions))


def _evaluation(
    e_res: EResult, source: FiniteAlgebra, target: FiniteAlgebra, points: Sequence[Homomorphism]
) -> Homomorphism:
    """The map source -> target sending a to the element of E(X) that is
    the morphism x |-> points[k](a) on the k-th point, sort-major;
    ``target`` is E(X)'s algebra under the caller's name."""
    index = {vec: k for k, vec in enumerate(e_res.morphisms)}
    images = []
    for a in range(source.size):
        vec = tuple(x.map[a] for x in points)
        if vec not in index:
            raise InternalError("evaluation image is not a morphism")
        images.append(index[vec])
    return Homomorphism(source, target, tuple(images))


# ---------------------------------------------------------------------------
# coproducts


@dataclass(frozen=True)
class CoproductResult:
    algebra: FiniteAlgebra  # E(X) named after the family: its elements are E(X)'s morphisms
    injections: tuple[Homomorphism, ...]
    structure: MultisortedStructure  # X, the product of duals, over the alter ego X.ego


def coproduct(
    generators: Sequence[FiniteAlgebra],
    spec: DReductSpec,
    omega,
    family: Sequence[FiniteAlgebra],
    points_cap: int = DEFAULT_POINTS_CAP,
) -> CoproductResult:
    """The coproduct of ``family`` in ISP(generators), as E(prod D(B)).

    Each B's membership is checked once, by :func:`natural_dual`.  The
    injection of B sends b to the morphism mapping a product point
    (x_A)_A of sort M to x_B(b).  Injections are checked to be
    homomorphisms; the universal property is checked against all
    homomorphism families into the generators, the product's points.
    """
    ego = build_alter_ego(generators, spec, omega)
    members = list(family)
    duals = [natural_dual(b, ego) for b in members]
    prod_structure = structure_product(duals, points_cap, ego=ego)
    e_res = e_functor(prod_structure)
    algebra = e_res.algebra.rename(f"Coprod({','.join(b.name for b in members)})")
    injections = []
    for bi, b in enumerate(members):
        points = [x[bi] for sort in prod_structure.points for x in sort]
        eps = _evaluation(e_res, b, algebra, points)
        if not eps.is_valid():
            raise InternalError("coproduct injection not a homomorphism")
        injections.append(eps)
    result = CoproductResult(algebra, tuple(injections), prod_structure)
    _check_universal_property(result)
    return result


def _prescribed(result: CoproductResult, s: int) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The number K of homomorphism families (f_1, ..., f_n) from the members
    into the generator of sort s, which are the points of sort s of the
    product of duals, and the values they prescribe on C: family k asks
    g_k(eps_i(x)) = f_i(x), so each injection image c gets the row
    (g_1(c), ..., g_K(c)).  Two prescriptions for one c that disagree leave
    their family no mediating map, and raise InternalError."""
    families = result.structure.points[s]
    rows: dict[int, tuple[int, ...]] = {}
    for i, eps in enumerate(result.injections):
        for x in range(eps.source.size):
            row = tuple(f[i].map[x] for f in families)
            if rows.setdefault(eps.map[x], row) != row:
                raise InternalError(
                    f"universal property fails against {result.structure.ego.sorts[s].name!r}: a family "
                    f"prescribes two values at element {eps.map[x]} of C"
                )
    return len(families), rows


def _check_universal_property(result: CoproductResult) -> None:
    """The universal property: against every homomorphism family into
    ISP(generators) there is exactly one mediating map.

    A coproduct in a quasivariety is generated by its injection images
    (Clark & Davey, *Natural Dualities for the Working Algebraist*, 1998),
    so C is the coproduct exactly when, for each generator m, the values
    the K families into m prescribe on the images agree and extend to a
    homomorphism C -> m^K (:func:`_extends_to_hom`, False also when the
    images and the nullary values do not generate C).  Uniqueness follows
    from generation, and existence into ISP(generators) from the
    generators.  A generator that receives no family is skipped: when none
    does, the product of duals has no points and C has one element.
    """
    for s, m in enumerate(result.structure.ego.sorts):
        width, rows = _prescribed(result, s)
        if width and not _extends_to_hom(result.algebra, m, rows, width):
            raise InternalError(
                f"universal property fails against {m.name!r}: the injection images "
                "do not generate C, or the values they are given do not extend to a homomorphism"
            )


# ---------------------------------------------------------------------------
# Priestley dual reconstruction from the natural dual


@dataclass(frozen=True)
class PreorderSpace:
    """The carrier-indexed preorder on pairs (dual point, carrier)."""

    elements: tuple[tuple[int, int, int], ...]  # (sort, point, carrier index)
    preceq_rows: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class RevEngResult:
    preorder: PreorderSpace
    quotient: FinitePoset
    priestley: FinitePoset
    isomorphism: tuple[int, ...]


def reveng_priestley(algebra: FiniteAlgebra, ego: AlterEgo) -> RevEngResult:
    """Rebuild the Priestley dual of U(algebra) from its natural dual.

    Y is the union of (sort points) x (matching carriers); the preorder is
    membership in some lifted relation with matching carrier labels.  The
    canonical map F(u, w) = u^-1(w) is checked to send Y onto the prime
    filters with y <= z exactly when F(y) is inside F(z), so it is an
    order-isomorphism from the quotient by the symmetrization onto the
    prime-filter poset; the result holds it on the quotient classes.
    """
    dual = natural_dual(algebra, ego)
    elements: list[tuple[int, int, int]] = []
    offset = []  # the index of each carrier's first pair: the blocks run carrier-major
    for wi, w in enumerate(ego.carriers):
        s = ego.sort_index(w.sort)
        offset.append(len(elements))
        elements.extend((s, p, wi) for p in range(len(dual.points[s])))
    # a lifted row of R_{w1,w2} is a mask over the points of w2's sort:
    # shifted to w2's block, it is part of the preorder row of (p, w1)
    rows = [0] * len(elements)
    for rel, lifted in zip(ego.relations, dual.relations):
        for p, row in enumerate(lifted):
            rows[offset[rel.omega1] + p] |= row << offset[rel.omega2]
    space = PreorderSpace(tuple(elements), tuple(rows))
    fault = _preorder_fault(rows)
    if fault is not None:
        raise InternalError(f"reconstruction preorder is not {fault[0]}")
    # quotient by the symmetrization: in a preorder, x ~ y iff their rows agree
    cls = _relabel(rows)
    count = len(set(cls))
    pairs = {(cls[x], cls[y]) for x, row in enumerate(rows) for y in _bits(row)}
    quotient_poset = poset_from_pairs(count, pairs, tuple(f"c{k}" for k in range(count)))
    lattice = d_reduct(algebra, ego.spec)
    priestley = priestley_dual(lattice)
    number = {_mask(f.elements): k for k, f in enumerate(prime_filters(lattice))}
    image = [
        number.get(_mask(a for a, v in enumerate(dual.points[s][p].map) if v in ego.carriers[wi]))
        for s, p, wi in elements
    ]
    fibres: dict = {}  # F^-1(k) as a mask over Y; None collects what is no prime filter
    for y, k in enumerate(image):
        fibres[k] = fibres.get(k, 0) | 1 << y
    if set(fibres) != set(range(priestley.size)) or any(
        row != _union(fibres, _bits(priestley.leq_rows[k])) for row, k in zip(rows, image)
    ):
        raise InternalError(
            "reconstruction quotient is not isomorphic to the Priestley dual"
        )
    # _relabel numbers classes by first occurrence, so the keys run 0, 1, ...
    iso = tuple(dict(zip(cls, image)).values())
    return RevEngResult(space, quotient_poset, priestley, iso)

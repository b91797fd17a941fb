"""Bounded-distributive-lattice term reducts and finite Priestley duality.

The dual of a finite bounded distributive lattice is the poset of its prime
filters; in the finite case these are exactly the up-sets of join-irreducible
elements, which keeps both directions of the duality quadratic.  A reduct is
validated once per algebra and spec, in O(n^2) operations on bitmask rows,
and kept with the algebra (and its ``rename()`` copies) for later calls as
its order and bounds: the duality reads it only through its order, which
fixes meet and join, so their tables are built to check the axioms only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import FiniteAlgebra, Term, app, term_table, var
from .errors import LatcopError, LatticeAxiomError


@dataclass(frozen=True)
class DReductSpec:
    """Terms carving a bounded-distributive-lattice reduct out of a signature."""

    meet: Term
    join: Term
    bot: Term
    top: Term

    def __post_init__(self):
        if self.meet.max_var > 1 or self.join.max_var > 1:
            raise LatcopError("meet/join terms may only use x0 and x1")
        if self.bot.max_var >= 0 or self.top.max_var >= 0:
            raise LatcopError("bot/top terms must be closed")

    @staticmethod
    def literal() -> "DReductSpec":
        return DReductSpec(
            app("meet", var(0), var(1)), app("join", var(0), var(1)), app("zero"), app("one")
        )


@dataclass(frozen=True)
class DistLatticeReduct:
    """A validated bounded-distributive-lattice reduct of a finite algebra."""

    carrier: FiniteAlgebra
    bot: int
    top: int
    leq_rows: tuple[int, ...]  # row x is a bitmask of { y : x <= y }
    irreducibles: int  # bitmask of the join-irreducible elements

    @property
    def size(self) -> int:
        return self.carrier.size

    def join(self, x: int, y: int) -> int:
        """x v y, the element whose up-set is up(x) & up(y)."""
        return self.leq_rows.index(self.leq_rows[x] & self.leq_rows[y])

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_rows[x] >> y & 1)

    def element_name(self, x: int) -> str:
        return self.carrier.element_name(x)

    def upset(self, x: int) -> frozenset[int]:
        return frozenset(_bits(self.leq_rows[x]))

    def __repr__(self) -> str:
        return f"DistLatticeReduct({self.carrier.name!r}, size={self.size})"


def d_reduct(algebra: FiniteAlgebra, spec: DReductSpec) -> DistLatticeReduct:
    """Extract and validate the reduct; raises LatticeAxiomError with the
    failing property and a witness tuple.

    The first call per spec validates (:func:`_validate`); the result is
    kept with the algebra and read by later calls, on it and on its
    ``rename()`` copies.  A failed validation is not kept.
    """
    kept = algebra._reducts.get(spec)
    if kept is None:
        kept = algebra._reducts[spec] = _validate(algebra, spec)
    return DistLatticeReduct(algebra, *kept)


def _validate(algebra: FiniteAlgebra, spec: DReductSpec) -> tuple:
    """The reduct's bottom, top, ``leq_rows`` and join-irreducible mask, in
    O(n^2) operations on n-bit rows (the meet and join tables are not kept).

    Lemma (Davey & Priestley, *Introduction to Lattices and Order*, 2nd ed.,
    2002, ch. 2 and 5).  Read x <= y off the meet table as m(x, y) = x, and
    let up(x) and down(x) be the rows of elements above and below x.  Then
    (m, j, bot, top) is a bounded distributive lattice exactly when

    1. <= is a partial order ("meet order reflexive" at (x,), "meet order
       transitive" at (x, y, z), "meet order antisymmetric" at (x, y));
    2. j(x, y) = y exactly when x <= y ("join order" at (x, y));
    3. down(m(x, y)) = down(x) & down(y) and up(j(x, y)) = up(x) & up(y)
       ("meet is the glb", "join is the lub", at (x, y));
    4. up(bot) and down(top) hold every element ("bottom least", "top
       greatest", at the first element outside);
    5. every join-irreducible p is join-prime: J(j(x, y)) = J(x) | J(y),
       where J(x) = down(x) & J(L) ("distributivity" at (p, x, y)).

    Proof.  By 3, m(x, y) is below x and y and above every common lower
    bound, so it is their glb in <=; dually j(x, y) is their lub.  So
    (L, <=) is a lattice whose operations are m and j, and commutativity,
    associativity and absorption hold.  Given 1, step 2 follows from 3; it
    is checked first because it names the commonest fault.  By 4, bot and top are
    neutral for j and m.  A finite lattice is distributive exactly when its
    join-irreducibles are join-prime: one way, p = p ^ (x v y) =
    (p ^ x) v (p ^ y) gives p <= x or p <= y; the other way, x -> J(x) then
    embeds L in the subsets of J(L), as x is the join of J(x).  A p <= x v y
    below neither x nor y breaks p ^ (x v y) = (p ^ x) v (p ^ y), whose
    right side lies strictly below p; that triple is the witness.  J(L) is
    L less bot and the joins of incomparable pairs, and step 5 holds
    trivially on comparable pairs, so J(L) and step 5 read incomparable
    pairs only.
    """
    n = algebra.size
    m = term_table(algebra, spec.meet, 2)
    j = term_table(algebra, spec.join, 2)
    bot = term_table(algebra, spec.bot, 0)[0]
    top = term_table(algebra, spec.top, 0)[0]
    r = range(n)
    up = tuple(_mask(y for y in r if m[x * n + y] == x) for x in r)
    down = tuple(_mask(y for y, v in enumerate(m[x::n]) if v == y) for x in r)

    fault = _preorder_fault(up)
    if fault is not None:
        raise LatticeAxiomError(f"meet order {fault[0]}", fault[1])
    first: dict[int, int] = {}
    for x, row in enumerate(up):
        if first.setdefault(row, x) != x:
            raise LatticeAxiomError("meet order antisymmetric", (first[row], x))
    for x in r:
        diff = up[x] ^ _mask(y for y, v in enumerate(j[x * n:(x + 1) * n]) if v == y)
        if diff:
            raise LatticeAxiomError("join order", (x, _bits(diff)[0]))
    for x in r:
        dx, ux = down[x], up[x]
        for y in r:
            if down[m[x * n + y]] != dx & down[y]:
                raise LatticeAxiomError("meet is the glb", (x, y))
            if up[j[x * n + y]] != ux & up[y]:
                raise LatticeAxiomError("join is the lub", (x, y))
    full = (1 << n) - 1
    if up[bot] != full:
        raise LatticeAxiomError("bottom least", (_bits(full ^ up[bot])[0],))
    if down[top] != full:
        raise LatticeAxiomError("top greatest", (_bits(full ^ down[top])[0],))

    def incomparable():
        return ((x, y) for x in r for y in _bits(full ^ (up[x] | down[x])))

    irreducibles = full & ~(1 << bot | _mask(j[x * n + y] for x, y in incomparable()))
    below = [row & irreducibles for row in down]
    for x, y in incomparable():
        escaped = below[j[x * n + y]] ^ (below[x] | below[y])
        if escaped:
            raise LatticeAxiomError("distributivity", (_bits(escaped)[0], x, y))
    return bot, top, up, irreducibles


# ---------------------------------------------------------------------------
# prime filters


@dataclass(frozen=True)
class PrimeFilter:
    """A prime filter of the reduct of ``sort``, stored with the
    join-irreducible generating it.  As a lattice map U(sort) -> 2 it is a
    carrier map of the piggyback duality."""

    sort: FiniteAlgebra
    elements: frozenset[int]
    generator: int

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def label(self) -> str:
        return "{" + ",".join(self.sort.element_name(x) for x in sorted(self.elements)) + "}"

    def __repr__(self) -> str:
        return f"PrimeFilter({self.sort.name!r}, {self.label()})"


def join_irreducibles(lattice: DistLatticeReduct) -> list[int]:
    """Elements that are not the join of their strict lower set, read off
    the mask kept with the reduct."""
    return _bits(lattice.irreducibles)


def prime_filters(lattice: DistLatticeReduct) -> list[PrimeFilter]:
    """All prime filters, one per join-irreducible, ordered by generator."""
    return [
        PrimeFilter(lattice.carrier, lattice.upset(jx), jx)
        for jx in join_irreducibles(lattice)
    ]


# ---------------------------------------------------------------------------
# posets, read as bitmask rows


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(elements: Iterable[int]) -> int:
    mask = 0
    for x in elements:
        mask |= 1 << x
    return mask


def _union(masks: Sequence[int], indices: Iterable[int]) -> int:
    """The OR of ``masks[i]`` over the indices."""
    out = 0
    for i in indices:
        out |= masks[i]
    return out


def _preorder_fault(rows: Sequence[int]) -> tuple[str, tuple[int, ...]] | None:
    """The first preorder axiom the relation whose row x is the bitmask of
    { y : x <= y } breaks, with a witness: ('reflexive', (x,)) or
    ('transitive', (x, y, z)) with x <= y <= z but not x <= z; None if
    neither.  Transitive means that row y lies inside row x for each y in
    row x."""
    for x, row in enumerate(rows):
        if not row >> x & 1:
            return "reflexive", (x,)
    for x, row in enumerate(rows):
        for y in _bits(row):
            if rows[y] & ~row:
                return "transitive", (x, y, _bits(rows[y] & ~row)[0])
    return None


@dataclass(frozen=True)
class FinitePoset:
    size: int
    leq_rows: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.leq_rows) != self.size or any(row >> self.size for row in self.leq_rows):
            raise LatcopError(f"poset order must be {self.size} rows over the points 0..{self.size - 1}")
        if len(self.labels) != self.size:
            raise LatcopError(f"poset needs {self.size} labels, got {len(self.labels)}")
        fault = _preorder_fault(self.leq_rows)
        axiom = fault and fault[0]
        # in a preorder x <= y <= x exactly when rows x and y agree
        if axiom is None and len(set(self.leq_rows)) < self.size:
            axiom = "antisymmetric"
        if axiom is not None:
            raise LatcopError(f"poset order must be {axiom}")

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_rows[x] >> y & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (lo, hi): the Hasse diagram edges.  The covers of
        lo are its strict up-set less the strict up-sets of its members."""
        strict = [row & ~(1 << x) for x, row in enumerate(self.leq_rows)]
        return [(lo, hi) for lo, up in enumerate(strict) for hi in _bits(up & ~_union(strict, _bits(up)))]

    def to_dot(self, graph_name: str = "poset") -> str:
        """Hasse diagram in DOT; edges are covering pairs only."""
        lines = [f"digraph {graph_name} {{", "  rankdir=BT;"]
        for x in range(self.size):
            lines.append(f'  n{x} [label="{self.labels[x]}"];')
        for lo, hi in self.covers():
            lines.append(f"  n{lo} -> n{hi};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def poset_from_pairs(size: int, pairs: set[tuple[int, int]], labels: tuple[str, ...] | None = None) -> FinitePoset:
    rows = [1 << x for x in range(size)]
    for x, y in pairs:
        rows[x] |= 1 << y
    return FinitePoset(size, tuple(rows), labels or tuple(str(i) for i in range(size)))


# ---------------------------------------------------------------------------
# the functor H


def priestley_dual(lattice: DistLatticeReduct) -> FinitePoset:
    """H(L): prime filters ordered by inclusion, numbered like
    :func:`prime_filters`.  The filter up(p) lies inside up(q) exactly when
    q <= p, so the dual's rows are read off ``leq_rows``."""
    gens = join_irreducibles(lattice)
    index = {p: i for i, p in enumerate(gens)}
    rows = [0] * len(gens)
    for k, q in enumerate(gens):
        for p in _bits(lattice.leq_rows[q] & lattice.irreducibles):
            rows[index[p]] |= 1 << k
    labels = tuple(lattice.element_name(p) for p in gens)
    return FinitePoset(len(gens), tuple(rows), labels)


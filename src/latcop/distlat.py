"""Bounded-distributive-lattice term reducts and finite Priestley duality.

The dual of a finite bounded distributive lattice is the poset of its prime
filters; in the finite case these are exactly the up-sets of join-irreducible
elements, which keeps both directions of the duality quadratic.  A reduct is
computed afresh on every call, from the term tables of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import FiniteAlgebra, Signature, Term, _color_masks, _maps, _refine_colors, app, term_table, var
from .errors import LatcopError, LatticeAxiomError

_BLOCK = 2**16  # (x, y, z) triples per block of d_reduct's cubic identity checks


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
    meet_table: tuple[int, ...]
    join_table: tuple[int, ...]
    bot: int
    top: int
    leq_rows: tuple[int, ...]  # row x is a bitmask of { y : x <= y }

    @property
    def size(self) -> int:
        return self.carrier.size

    def join(self, x: int, y: int) -> int:
        return self.join_table[x * self.size + y]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_rows[x] >> y & 1)

    def element_name(self, x: int) -> str:
        return self.carrier.element_name(x)

    def upset(self, x: int) -> frozenset[int]:
        return frozenset(y for y in range(self.size) if self.leq(x, y))

    def __repr__(self) -> str:
        return f"DistLatticeReduct({self.carrier.name!r}, size={self.size})"


def d_reduct(algebra: FiniteAlgebra, spec: DReductSpec) -> DistLatticeReduct:
    """Extract and validate the reduct; raises LatticeAxiomError with the
    failing identity and a witness tuple."""
    import numpy as np

    n = algebra.size
    m = term_table(algebra, spec.meet, 2)
    j = term_table(algebra, spec.join, 2)
    bot = term_table(algebra, spec.bot, 0)[0]
    top = term_table(algebra, spec.top, 0)[0]

    M = np.asarray(m, dtype=np.int64).reshape(n, n)
    J = np.asarray(j, dtype=np.int64).reshape(n, n)

    def first_bad(bad, identity: str) -> None:
        if bad.any():
            where = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise LatticeAxiomError(identity, tuple(int(w) for w in where))

    first_bad(M != M.T, "meet commutativity")
    first_bad(J != J.T, "join commutativity")
    idx = np.arange(n)
    first_bad(M[idx[:, None], J] != idx[:, None], "absorption x^(xvy)=x")
    first_bad(J[idx[:, None], M] != idx[:, None], "absorption xv(x^y)=x")
    step = max(1, _BLOCK // n**2)
    for lo in range(0, n, step):
        Mx, Jx = M[lo:lo + step], J[lo:lo + step]
        # bad[x, k, y, z]: identity k fails at (lo + x, y, z); argmax finds the least x
        bad = np.stack((M[Mx] != Mx[:, M], J[Jx] != Jx[:, J], Mx[:, J] != J[Mx[:, :, None], Mx[:, None, :]]), axis=1)
        if bad.any():
            x, k, y, z = (int(w) for w in np.unravel_index(int(np.argmax(bad)), bad.shape))
            raise LatticeAxiomError(("meet associativity", "join associativity", "distributivity")[k], (lo + x, y, z))
    first_bad(J[:, bot] != idx, "bottom neutral")
    first_bad(M[:, top] != idx, "top neutral")

    rows = []
    for x in range(n):
        row = 0
        for y in range(n):
            if m[x * n + y] == x:
                row |= 1 << y
        rows.append(row)
    return DistLatticeReduct(algebra, m, j, bot, top, tuple(rows))


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
    """Elements that are not the join of their strict lower set."""
    out = []
    for x in range(lattice.size):
        if x == lattice.bot:
            continue
        acc = lattice.bot
        for y in range(lattice.size):
            if y != x and lattice.leq(y, x):
                acc = lattice.join(acc, y)
        if acc != x:
            out.append(x)
    return out


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


def _preorder_fault(rows: Sequence[int]) -> str | None:
    """The first preorder axiom the relation whose row x is the bitmask of
    { y : x <= y } breaks, 'reflexive' or 'transitive'; None if neither.
    Transitive means that row y lies inside row x for each y in row x."""
    if any(not row >> x & 1 for x, row in enumerate(rows)):
        return "reflexive"
    if any(rows[y] & ~row for row in rows for y in _bits(row)):
        return "transitive"
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
        # in a preorder x <= y <= x exactly when rows x and y agree
        if fault is None and len(set(self.leq_rows)) < self.size:
            fault = "antisymmetric"
        if fault is not None:
            raise LatcopError(f"poset order must be {fault}")

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
    """H(L): prime filters ordered by inclusion."""
    pfs = prime_filters(lattice)
    rows = tuple(_mask(j for j, fj in enumerate(pfs) if fi.elements <= fj.elements) for fi in pfs)
    labels = tuple(lattice.element_name(f.generator) for f in pfs)
    return FinitePoset(len(pfs), rows, labels)


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
    vector, or None.

    Searches the isomorphisms of the ``up`` encodings, with the images of
    each point restricted to the points of its invariant color.
    """
    if p.size != q.size:
        return None
    if p.size == 0:
        return ()
    a, b = _up_algebra(p), _up_algebra(q)
    pool: dict = {}
    masks = _color_masks(_refine_colors(a, pool), _refine_colors(b, pool))
    if masks is None:
        return None
    return next(_maps(a, b, allowed=masks, injective=True), None)

"""Carrier maps, the separation condition, and maximal algebraic relations.

A carrier map is a bounded-lattice homomorphism from the reduct of a
generator into 2, i.e. a prime filter of that reduct (one type,
:class:`~latcop.distlat.PrimeFilter`, which carries its sort).  For a pair
of carrier maps the relations R are the maximal subuniverses of the product
of their sorts contained in the sublattice of pairs (a, b) with
w1(a) <= w2(b) (the bitmask :func:`leq_mask`), found by a bitset branch
and bound on Python ints (:func:`maximal_subuniverses_in`); whether
|R| <= 1 is read off the root of that search alone (:func:`_relation_search`),
built from principal closures that stop at the first known one equal to
them (:func:`_close_principal`) and tested by streaming one closure.

One separation table gives each carrier the bitmask of the pairs it
separates; the separation check and the minimum carrier search (a set
cover) both read it.  :class:`AlterEgo` is the one alter ego: it reads G
off the generators' kept hom-sets, picks or checks the carriers, and sets
up one square and relation search per pair of sorts, listing a pair's
relations when first read; the classification reads only the roots.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .algebra import (
    FiniteAlgebra,
    _closure,
    direct_product,
    hom_set,
)
from .distlat import DReductSpec, PrimeFilter, _bitmask, _bits, _mask, _union, d_reduct, prime_filters
from .errors import CapExceeded, LatcopError, SeparationError

# nodes one relation search may visit; pseudo_b(4)'s largest needs 34,053
RELATION_NODE_BUDGET = 1_000_000


def carriers_of(sort: FiniteAlgebra, spec: DReductSpec) -> tuple[PrimeFilter, ...]:
    """All carrier maps of a generator, in canonical (generator-element)
    order."""
    return tuple(prime_filters(d_reduct(sort, spec)))


def carrier_from_filter(sort: FiniteAlgebra, spec: DReductSpec, elements: Iterable[int]) -> PrimeFilter:
    """The carrier map with the given filter; validates it is a prime filter."""
    wanted = frozenset(elements)
    for c in carriers_of(sort, spec):
        if c.elements == wanted:
            return c
    raise LatcopError(
        f"{sorted(wanted)} is not a prime filter of the reduct of {sort.name!r}"
    )


# ---------------------------------------------------------------------------
# separation


@dataclass(frozen=True)
class SepResult:
    holds: bool
    witness: tuple[int, int, int] | None  # (sort index, a, b) left unseparated

    def __bool__(self) -> bool:
        return self.holds


def _separation_table(
    gens: Sequence[FiniteAlgebra], carriers: Sequence[PrimeFilter]
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The pairs (i, a, b), a < b, of the generators in generator-then-element
    order, and per carrier w the bitmask of the pairs it separates: bit k is
    set iff w o u splits pairs[k] for some u in hom(gens[i], w.sort).
    All carriers of a sort read one (homs x elements) image array at once:
    a pair is split exactly when its elements' columns of bits w(u(a)),
    packed along the hom axis, differ."""
    pairs = [
        (i, a, b)
        for i, m in enumerate(gens)
        for a, b in itertools.combinations(range(m.size), 2)
    ]
    by_sort: dict[int, list[int]] = {}  # sort index -> its carriers' positions
    for k, w in enumerate(carriers):
        if w.sort not in gens:
            raise LatcopError("carrier sort is not among the generators")
        by_sort.setdefault(gens.index(w.sort), []).append(k)
    masks = [0] * len(carriers)
    offset = 0  # of the generator's first pair
    for m in gens:
        left, right = np.triu_indices(m.size, 1)  # the pairs a < b in combination order
        for s, ks in by_sort.items():
            into = hom_set(m, gens[s])
            images = np.array([u.map for u in into], np.intp).reshape(len(into), m.size)
            inside = np.array([[x in carriers[k] for x in range(gens[s].size)] for k in ks])
            columns = np.packbits(inside[:, images], axis=1)  # (carriers, bytes, elements)
            split = (columns[:, :, left] != columns[:, :, right]).any(axis=1)
            for k, flags in zip(ks, split):
                masks[k] |= _bitmask(flags) << offset
        offset += len(left)
    return pairs, masks


def sep_condition(generators: Sequence[FiniteAlgebra], omega: Sequence[PrimeFilter]) -> SepResult:
    """The separation condition for (generators, omega).

    Every pair a != b in each generator must be split by some w o u with u a
    homomorphism between generators and w a chosen carrier of u's target.
    The witness is the first pair no carrier separates.
    """
    gens = list(generators)
    pairs, masks = _separation_table(gens, omega)
    missed = ((1 << len(pairs)) - 1) & ~functools.reduce(operator.or_, masks, 0)
    if missed:
        return SepResult(False, pairs[(missed & -missed).bit_length() - 1])
    return SepResult(True, None)


@dataclass(frozen=True)
class MinimalityCertificate:
    size: int                # every smaller size failed, as sizes are tried upward
    alternatives: int        # other separating sets of the same size


def minimal_omega_certified(
    generators: Sequence[FiniteAlgebra], spec: DReductSpec
) -> tuple[tuple[PrimeFilter, ...], MinimalityCertificate]:
    """A minimum-cardinality separating carrier set.

    Searched by increasing size with lexicographic tie-break over the
    canonical carrier enumeration (sort-major, then generator element).  The
    full carrier set always separates, so the search terminates.  Each
    carrier's bitmask of separated pairs comes from the separation table of
    :func:`sep_condition`; a candidate separates iff its masks cover every
    pair.
    """
    gens = list(generators)
    all_carriers = [w for m in gens for w in carriers_of(m, spec)]
    pairs, covers = _separation_table(gens, all_carriers)
    full = (1 << len(pairs)) - 1
    for size in range(1, len(all_carriers) + 1):
        winners = [
            combo
            for combo in itertools.combinations(range(len(all_carriers)), size)
            if functools.reduce(operator.or_, (covers[k] for k in combo)) == full
        ]
        if winners:
            return tuple(all_carriers[k] for k in winners[0]), MinimalityCertificate(size, len(winners) - 1)
    raise SeparationError(
        "the full carrier set does not separate: some generator is trivial "
        "or not in the quasivariety"
    )


# ---------------------------------------------------------------------------
# the sublattices (w1, w2)^-1(<=) and their maximal subuniverses


def leq_mask(w1: PrimeFilter, w2: PrimeFilter) -> int:
    """The sublattice (w1, w2)^-1(<=) of the pairs (a, b) with
    w1(a) <= w2(b), as a bitmask over the square of the two sorts, bit
    a*n2 + b for the pair (a, b) as :func:`~latcop.algebra.direct_product`
    numbers it: the full mask less, for each a in w1's filter, the row of
    b outside w2's filter."""
    n2 = w2.sort.size
    hole = ((1 << n2) - 1) & ~_mask(w2.elements)
    cut = 0
    for a in w1.elements:
        cut |= hole << (a * n2)
    return ((1 << (w1.sort.size * n2)) - 1) & ~cut


class _Preimages:
    """A binary table of an n-element product, its read-only array
    (:meth:`~latcop.algebra.FiniteAlgebra.arrays`) over the flat input
    positions, with the mask of the positions mapped to each value, built
    when first asked for and then kept.  Unary tables get none: every node
    of the relation search is a union of principal subuniverses
    sg(base + x), which hold f(x) for each unary f, so no unary operation
    leads out of a node (see :func:`_relation_search`)."""

    def __init__(self, table: np.ndarray, n: int):
        self.table = table
        self.masks: list[int | None] = [None] * n

    def escape(self, outside: np.ndarray) -> int:
        """The mask of the positions whose value is flagged in ``outside``,
        one bool per element."""
        return _bitmask(outside.take(self.table))

    def union(self, values: Iterable[int]) -> int:
        """The mask of the positions mapped into ``values``."""
        out = 0
        for z in values:
            mask = self.masks[z]
            if mask is None:
                mask = self.masks[z] = _bitmask(self.table == z)
            out |= mask
        return out


def _close_principal(
    product: FiniteAlgebra, e: int, swap: Sequence[int] | None, principal: dict[int, int]
) -> None:
    """Put sg(base + e) into ``principal`` as a bitmask.  ``swap`` is None
    or, on the square of one sort, the map (a, b) -> (b, a) of its
    elements: an automorphism, which fixes base, so sg(base + swap[e]) is
    sg(base + e) swapped, and goes in too.

    The closure is walked only up to its first member x whose closure is
    known and holds e: then sg(base + e) = sg(base + x), as x lies in
    sg(base + e) and e in sg(base + x).  The mirror of x's closure is kept
    with it, so it is known too."""
    members: list[int] = []
    for x in _closure(product, (e,)):
        if x in principal and principal[x] >> e & 1:
            principal[e] = principal[x]
            if swap is not None:
                principal[swap[e]] = principal[swap[x]]
            return
        members.append(x)
    principal[e] = _mask(members)
    if swap is not None:
        principal[swap[e]] = _mask(swap[x] for x in members)


class _Search(NamedTuple):
    maximal: Callable[[int], list[int]]
    root_class: Callable[[int], int]


def _relation_search(product: FiniteAlgebra, sort_size: int | None = None) -> _Search:
    """The maximal-subuniverse search of ``product``, set up once.

    Let R be the set of maximal subuniverses inside a bitmask ``allowed``,
    the empty set not counted.  ``maximal(allowed)`` lists R as bitmasks,
    sorted as :func:`maximal_subuniverses_in` documents.
    ``root_class(allowed)`` is min(|R|, 2), read off the search's root
    s = base + {e allowed : sg(base + e) lies inside allowed}: R is empty
    when base escapes the allowed set or s is empty, R = {s} when s is
    closed, else |R| >= 2.  Proof: a subuniverse inside the allowed set
    holds base and sg(base + e) for each of its e, so it lies inside s;
    each e of s lies in sg(base + e), inside some member of R, so R covers
    s, and one member alone would be s.  Whether s is closed is read by
    streaming sg(s) (:func:`~latcop.algebra._closure`) up to its first
    member outside s, so a class-2 root costs no full closure.

    The set-up is shared by every allowed set and by both readers: the
    least subuniverse ``base`` and the principal subuniverses sg(base + e)
    (each computed when an allowed set first holds e, together with its
    mirror when ``product`` is the square of one sort of ``sort_size``
    elements).  The listing alone reads the binary tables with their
    preimage masks over the n*n-bit square (bit x*n+y, see
    :class:`_Preimages`), and the row-plus-column mask of each element.
    Nullary values lie in ``base``, which every node keeps, so they never
    escape.  Nor do unary values: every node is a union of principal
    subuniverses sg(base + x).  The root is one, as it holds sg(base + e)
    with each of its e; a branch deletes all of up[e], the x whose
    sg(base + x) holds e, so what is left keeps each sg(base + x) whole;
    and base is never deleted.  For a unary f, f(x) lies in sg(base + x),
    so a node that keeps x keeps f(x).
    """
    n = product.size
    base = _mask(_closure(product, ()))
    principal: dict[int, int] = {}  # sg(base + e), filled in on first use
    swap = None if sort_size is None else [x % sort_size * sort_size + x // sort_size for x in range(n)]
    # (arity, index into pre_ops or, for arity >= 3, the table)
    ops: list[tuple[int, int | tuple[int, ...]]] = []
    pre_ops: list[_Preimages] = []
    for (_, arity, tab), array in zip(product.ops(), product.arrays()):
        if arity == 2:
            ops.append((arity, len(pre_ops)))
            pre_ops.append(_Preimages(array, n))
        elif arity > 2:
            ops.append((arity, tab))
    row = (1 << n) - 1
    column = _mask(x * n for x in range(n))
    cross = [(row << (e * n)) | (column << e) for e in range(n)]

    def violation(s: int, square: int, bad: list[int]) -> list[int] | None:
        """Input elements of the least operation instance escaping ``s``,
        ordered by (declaration order, input tuple); None if s is closed."""
        for arity, ref in ops:
            if arity == 2:
                hit = bad[ref] & square
                if hit:
                    return list(divmod((hit & -hit).bit_length() - 1, n))
            else:
                els = _bits(s)
                for args in itertools.product(els, repeat=arity):
                    if not s >> ref[product.flat_index(args)] & 1:
                        return list(args)
        return None

    def root(allowed: int) -> int | None:
        """The root s; None if base escapes ``allowed``."""
        if base & ~allowed:
            return None
        s = base
        for e in _bits(allowed & ~base):
            if e not in principal:
                _close_principal(product, e, swap, principal)
            if not principal[e] & ~allowed:
                s |= 1 << e
        return s

    def root_class(allowed: int) -> int:
        s = root(allowed)
        if not s:
            return 0
        return 1 if all(s >> x & 1 for x in _closure(product, _bits(s))) else 2

    def maximal(allowed: int) -> list[int]:
        start = root(allowed)
        if start is None:
            return []
        square = 0
        for x in _bits(start):
            square |= start << (x * n)
        held = np.frombuffer(start.to_bytes(-(-n // 8), "little"), np.uint8)
        outside = np.unpackbits(held, count=n, bitorder="little") == 0
        bad = [pre.escape(outside) for pre in pre_ops]
        up: list[int] = []  # up[e]: the root elements x with e in sg(base + x)
        drops: dict[int, tuple[int, int, list[int]]] = {}  # e -> up[e] and its masks

        def drop(e: int) -> tuple[int, int, list[int]]:
            # up[e], the OR of the cross and preimage masks over it; ``up`` is
            # built once the root is not closed, and holds only root elements
            # as the principal closure of a root element lies in the root
            if not up:
                up.extend([0] * n)
                for x in _bits(start & ~base):
                    for y in _bits(principal[x]):
                        up[y] |= 1 << x
            if e not in drops:
                xs = _bits(up[e])
                drops[e] = (up[e], _union(cross, xs), [pre.union(xs) for pre in pre_ops])
            return drops[e]

        results: list[int] = []
        nodes = 0
        # branch i deletes up[e] for the i-th input e and keeps the inputs
        # before it, so the branches are disjoint and no set is visited
        # twice; ``need``, the union of sg(base + e) over the kept e, meets
        # up[e] exactly when it holds e, so it stays inside s
        stack = [(start, base, square, bad)]
        while stack:
            s, need, square, bad = stack.pop()
            nodes += 1
            if nodes > RELATION_NODE_BUDGET:
                raise CapExceeded(
                    f"relation search exceeded {RELATION_NODE_BUDGET} nodes",
                    required=nodes,
                    stage="relation search",
                    budget=RELATION_NODE_BUDGET,
                )
            inputs = violation(s, square, bad)
            if inputs is None:
                if s:
                    results.append(s)
                continue
            for e in sorted(set(inputs)):
                if need >> e & 1:
                    continue  # e lies in a kept closure: deleting it is dead
                gone, cut, pres = drop(e)
                stack.append((
                    s & ~gone,
                    need,
                    square & ~cut,
                    [b | p for b, p in zip(bad, pres)],
                ))
                need |= principal[e]
        # a result is dominated iff some kept top holds all its elements:
        # holders[x] is the bitmask of the tops holding x
        results.sort(key=int.bit_count, reverse=True)
        tops: list[int] = []
        holders = [0] * n
        for r in results:
            xs = _bits(r)
            common = -1
            for x in xs:
                common &= holders[x]
                if not common:
                    break
            if not common:
                for x in xs:
                    holders[x] |= 1 << len(tops)
                tops.append(r)
        return sorted(tops, key=_bits)

    return _Search(maximal, root_class)


def maximal_subuniverses_in(
    product: FiniteAlgebra, allowed: Iterable[int]
) -> list[frozenset[int]]:
    """All maximal subuniverses of ``product`` contained in ``allowed``,
    sorted by their sorted element lists.

    Branch and bound on bitmasks from the allowed elements whose principal
    subuniverse fits: at each node take the least violating operation
    instance and branch on deleting each of its inputs not yet kept, branch
    i keeping the inputs before it.  Deleting e deletes every x whose
    principal subuniverse holds e, as a subuniverse avoiding e avoids x, so
    the principal subuniverses of the kept elements never leave a branch.
    Non-maximal results are filtered at the end through a per-element index
    of the maximal ones found so far, largest first.  Raises CapExceeded
    past ``RELATION_NODE_BUDGET`` nodes.  The empty list means no
    subuniverse fits (e.g. a nullary value escapes the allowed set).
    """
    allowed_set = set(allowed)
    if not all(0 <= x < product.size for x in allowed_set):
        raise LatcopError("allowed set outside universe")
    return [frozenset(_bits(s)) for s in _relation_search(product).maximal(_mask(allowed_set))]


# ---------------------------------------------------------------------------
# alter egos


@dataclass(frozen=True)
class SortedRelation:
    """A maximal algebraic relation between two sorts, labeled by carriers:
    bit b of ``rows[a]`` is set iff (a, b) is in it; ``pairs`` lists them."""

    sort1: int
    sort2: int
    omega1: int
    omega2: int
    rows: tuple[int, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((a, b) for a, row in enumerate(self.rows) for b in _bits(row))


class AlterEgo:
    """The alter ego M~ = (M; G, R, omega), one object for the flowchart and
    the functors D and E.  G (``operations``) is every homomorphism between
    the generators, read off their kept hom-sets pair by pair.  Without
    ``omega`` the carriers are a minimum separating set with the search's
    certificate as ``minimality``; a given ``omega`` that does not separate
    raises SeparationError.  One square and relation search per pair of
    sorts is set up on first use; a carrier pair's relations R are listed
    when first read and kept.  Two alter egos are equal only when they are
    one object.
    """

    def __init__(
        self,
        generators: Sequence[FiniteAlgebra],
        spec: DReductSpec,
        omega: Sequence[PrimeFilter] | None = None,
    ):
        sorts = self.sorts = tuple(generators)
        self.spec = spec
        self.operations = tuple(h for a in sorts for b in sorts for h in hom_set(a, b))
        if omega is None:
            self.carriers, self.minimality = minimal_omega_certified(sorts, spec)
        else:
            self.carriers, self.minimality = tuple(omega), None
            sep = sep_condition(sorts, self.carriers)
            if not sep.holds:
                raise SeparationError(
                    f"separation fails: elements {sep.witness[1]} and {sep.witness[2]} "
                    f"of generator {sorts[sep.witness[0]].name!r} are not separated",
                    witness=sep.witness,
                )
        self._searches: dict[tuple[int, int], _Search] = {}
        self._relations: dict[tuple[int, int], tuple[SortedRelation, ...]] = {}

    def sort_index(self, algebra: FiniteAlgebra) -> int:
        return self.sorts.index(algebra)

    def pairs(self) -> Iterable[tuple[int, int]]:
        return itertools.product(range(len(self.carriers)), repeat=2)

    def _search(self, i: int, j: int) -> tuple[tuple[int, int], _Search, int]:
        # the sorts of carriers i and j, their search and allowed set
        w1, w2 = self.carriers[i], self.carriers[j]
        sorts = (self.sort_index(w1.sort), self.sort_index(w2.sort))
        if sorts not in self._searches:
            same = w1.sort.size if sorts[0] == sorts[1] else None
            self._searches[sorts] = _relation_search(direct_product([w1.sort, w2.sort]), same)
        return sorts, self._searches[sorts], leq_mask(w1, w2)

    def root_class(self, i: int, j: int) -> int:
        """|R(w_i, w_j)| if at most 1, else 2, from the search's root."""
        _, search, allowed = self._search(i, j)
        return search.root_class(allowed)

    def relations_for(self, i: int, j: int) -> tuple[SortedRelation, ...]:
        """R(w_i, w_j) by branch and bound; CapExceeded past the node budget."""
        if (i, j) not in self._relations:
            sorts, search, allowed = self._search(i, j)
            n1, n2 = self.carriers[i].sort.size, self.carriers[j].sort.size
            self._relations[i, j] = tuple(
                SortedRelation(*sorts, i, j, tuple(s >> (a * n2) & ((1 << n2) - 1) for a in range(n1)))
                for s in search.maximal(allowed)
            )
        return self._relations[i, j]

    @property
    def relations(self) -> tuple[SortedRelation, ...]:
        """R over every ordered carrier pair, first carrier major."""
        return tuple(r for i, j in self.pairs() for r in self.relations_for(i, j))


def build_alter_ego(
    generators: Sequence[FiniteAlgebra],
    spec: DReductSpec,
    omega: Sequence[PrimeFilter] | None = None,
) -> AlterEgo:
    """The :class:`AlterEgo` for (generators, omega), with the relations of
    every ordered carrier pair listed."""
    ego = AlterEgo(generators, spec, omega)
    for i, j in ego.pairs():
        ego.relations_for(i, j)
    return ego

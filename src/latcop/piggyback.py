"""Carrier maps, the separation condition, and maximal algebraic relations.

A carrier map is a bounded-lattice homomorphism from the reduct of a
generator into 2, i.e. a prime filter of that reduct (one type,
:class:`~latcop.distlat.PrimeFilter`, which carries its sort).  For a pair
of carrier maps the relations R are the maximal subuniverses of the product
of their sorts contained in the sublattice of pairs (a, b) with
w1(a) <= w2(b) (the bitmask :func:`leq_mask`), found by a bitset branch
and bound on Python ints (:func:`maximal_subuniverses_in`).

One separation table gives each carrier the bitmask of the pairs it
separates; the separation check and the minimum carrier search (a set
cover) both read it.  :func:`build_alter_ego` is the one entry point: it
enumerates each hom-set once, into one store, picks or checks the carriers,
and sets up one square and relation search per pair of sorts.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (
    FiniteAlgebra,
    Homomorphism,
    Signature,
    _index_dtype,
    direct_product,
    hom_set,
    subuniverse_closure,
)
from .distlat import DReductSpec, PrimeFilter, _bits, _mask, _union, d_reduct, prime_filters
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
    gens: Sequence[FiniteAlgebra], carriers: Sequence[PrimeFilter], homs: dict
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The pairs (i, a, b), a < b, of the generators in generator-then-element
    order, and per carrier w the bitmask of the pairs it separates: bit k is
    set iff w o u splits pairs[k] for some u in hom(gens[i], w.sort) in ``homs``."""
    pairs = [
        (i, a, b)
        for i, m in enumerate(gens)
        for a, b in itertools.combinations(range(m.size), 2)
    ]
    masks = []
    for w in carriers:
        if w.sort not in gens:
            raise LatcopError("carrier sort is not among the generators")
        into = [hom_set(homs, m, w.sort) for m in gens]
        masks.append(sum(
            1 << k
            for k, (i, a, b) in enumerate(pairs)
            if any(w.value(u.map[a]) != w.value(u.map[b]) for u in into[i])
        ))
    return pairs, masks


def sep_condition(
    generators: Sequence[FiniteAlgebra], omega: Sequence[PrimeFilter], *, homs: dict | None = None
) -> SepResult:
    """The separation condition for (generators, omega).

    Every pair a != b in each generator must be split by some w o u with u a
    homomorphism between generators and w a chosen carrier of u's target.
    The witness is the first pair no carrier separates; ``homs`` is a hom-set store.
    """
    gens = list(generators)
    pairs, masks = _separation_table(gens, omega, {} if homs is None else homs)
    missed = ((1 << len(pairs)) - 1) & ~functools.reduce(operator.or_, masks, 0)
    if missed:
        return SepResult(False, pairs[(missed & -missed).bit_length() - 1])
    return SepResult(True, None)


@dataclass(frozen=True)
class MinimalityCertificate:
    size: int
    alternatives: int        # other separating sets of the same size
    smaller_sizes_failed: tuple[int, ...]


def minimal_omega_certified(
    generators: Sequence[FiniteAlgebra], spec: DReductSpec, *, homs: dict | None = None
) -> tuple[tuple[PrimeFilter, ...], MinimalityCertificate]:
    """A minimum-cardinality separating carrier set.

    Searched by increasing size with lexicographic tie-break over the
    canonical carrier enumeration (sort-major, then generator element).  The
    full carrier set always separates, so the search terminates.  Each
    carrier's bitmask of separated pairs comes from the separation table of
    :func:`sep_condition`, on the hom-sets in ``homs``; a candidate
    separates iff its masks cover every pair.
    """
    gens = list(generators)
    all_carriers = [w for m in gens for w in carriers_of(m, spec)]
    pairs, covers = _separation_table(gens, all_carriers, {} if homs is None else homs)
    full = (1 << len(pairs)) - 1
    failed: list[int] = []
    for size in range(1, len(all_carriers) + 1):
        winners = [
            combo
            for combo in itertools.combinations(range(len(all_carriers)), size)
            if functools.reduce(operator.or_, (covers[k] for k in combo)) == full
        ]
        if winners:
            return tuple(all_carriers[k] for k in winners[0]), MinimalityCertificate(
                size, len(winners) - 1, tuple(failed)
            )
        failed.append(size)
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


def _bitmask(flags: np.ndarray) -> int:
    """The bitmask whose bit i is set iff ``flags[i]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class _Preimages:
    """A unary or binary table of an n-element product as a narrow numpy
    array over its flat input positions, with the mask of the positions
    mapped to each value, built when first asked for and then kept."""

    def __init__(self, table: Sequence[int], n: int):
        self.table = np.array(table, _index_dtype(n))
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
    sg(base + e) swapped, and goes in too."""
    closure = subuniverse_closure(product, (e,))
    principal[e] = _mask(closure)
    if swap is not None:
        principal[swap[e]] = _mask(swap[x] for x in closure)


_Search = Callable[[int], list[int]]


def _relation_search(product: FiniteAlgebra, sort_size: int | None = None) -> _Search:
    """The maximal-subuniverse search of ``product``, set up once.

    Returns ``maximal(allowed)``, which maps a bitmask of allowed elements to
    the bitmasks of the maximal subuniverses inside it, sorted as
    :func:`maximal_subuniverses_in` documents.  The set-up is shared by every
    allowed set: the least subuniverse ``base``, the principal subuniverses
    sg(base + e) (each computed when an allowed set first holds e, together
    with its mirror when ``product`` is the square of one sort of
    ``sort_size`` elements), the unary and binary tables with their
    preimage masks over the n*n-bit square (bit x*n+y, see
    :class:`_Preimages`), and the row-plus-column mask of each element.
    Nullary values lie in ``base``, which every node keeps, so they never
    escape.
    """
    n = product.size
    base = _mask(subuniverse_closure(product, ()))
    principal: dict[int, int] = {}  # sg(base + e), filled in on first use
    swap = None if sort_size is None else [x % sort_size * sort_size + x // sort_size for x in range(n)]
    # (arity, index into pre_ops or, for arity >= 3, the table)
    ops: list[tuple[int, int | tuple[int, ...]]] = []
    pre_ops: list[_Preimages] = []
    for _, arity, tab in product.ops():
        if arity in (1, 2):
            ops.append((arity, len(pre_ops)))
            pre_ops.append(_Preimages(tab, n))
        elif arity > 2:
            ops.append((arity, tab))
    row = (1 << n) - 1
    column = _mask(x * n for x in range(n))
    cross = [(row << (e * n)) | (column << e) for e in range(n)]

    def violation(s: int, square: int, bad: list[int]) -> list[int] | None:
        """Input elements of the least operation instance escaping ``s``,
        ordered by (declaration order, input tuple); None if s is closed."""
        for arity, ref in ops:
            if arity == 1:
                hit = bad[ref] & s
                if hit:
                    return [(hit & -hit).bit_length() - 1]
            elif arity == 2:
                hit = bad[ref] & square
                if hit:
                    return list(divmod((hit & -hit).bit_length() - 1, n))
            else:
                els = _bits(s)
                for args in itertools.product(els, repeat=arity):
                    if not s >> ref[product.flat_index(args)] & 1:
                        return list(args)
        return None

    def maximal(allowed: int) -> list[int]:
        if base & ~allowed:
            return []
        s = base
        for e in _bits(allowed & ~base):
            if e not in principal:
                _close_principal(product, e, swap, principal)
            if not principal[e] & ~allowed:
                s |= 1 << e
        square = 0
        for x in _bits(s):
            square |= s << (x * n)
        held = np.frombuffer(s.to_bytes(-(-n // 8), "little"), np.uint8)
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
                for x in _bits(root & ~base):
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
        root = s
        stack = [(s, base, square, bad)]
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

    return maximal


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
    return [frozenset(_bits(s)) for s in _relation_search(product)(_mask(allowed_set))]


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


@dataclass(frozen=True)
class AlterEgo:
    """The multisorted dual-side structure: sorts, relations R, operations G.

    ``minimality`` is the certificate of the carrier search when
    :func:`build_alter_ego` chose the carriers, None when they were given.
    """

    sorts: tuple[FiniteAlgebra, ...]
    spec: DReductSpec
    carriers: tuple[PrimeFilter, ...]
    relations: tuple[SortedRelation, ...]
    operations: tuple[Homomorphism, ...]
    minimality: MinimalityCertificate | None = field(default=None, compare=False)

    def sort_index(self, algebra: FiniteAlgebra) -> int:
        return self.sorts.index(algebra)

    def relations_for(self, omega1: int, omega2: int) -> tuple[SortedRelation, ...]:
        return tuple(
            r for r in self.relations if r.omega1 == omega1 and r.omega2 == omega2
        )

    def relation_sizes(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for i in range(len(self.carriers)):
            for j in range(len(self.carriers)):
                out[(i, j)] = len(self.relations_for(i, j))
        return out


def build_alter_ego(
    generators: Sequence[FiniteAlgebra],
    spec: DReductSpec,
    omega: Sequence[PrimeFilter] | None = None,
    *,
    homs: dict | None = None,
) -> AlterEgo:
    """Assemble the alter ego for (generators, omega).

    Without ``omega`` the carriers are a minimum separating set and the
    search's certificate is kept as ``minimality``; a given ``omega`` is
    checked for separation, raising SeparationError when it fails.
    Relations are the union of the maximal-relation sets over all ordered
    carrier pairs; G is all homomorphisms between generators, enumerated
    first, pair by pair, into the store ``homs`` (as in ``algebra.hom_set``)
    that the carrier search or the separation check then reads.
    """
    gens = tuple(generators)
    homs = {} if homs is None else homs
    operations = tuple(h for a in gens for b in gens for h in hom_set(homs, a, b))
    if omega is None:
        omega, minimality = minimal_omega_certified(gens, spec, homs=homs)
    else:
        omega, minimality = tuple(omega), None
        sep = sep_condition(gens, omega, homs=homs)
        if not sep.holds:
            raise SeparationError(
                f"separation fails: elements {sep.witness[1]} and {sep.witness[2]} "
                f"of generator {gens[sep.witness[0]].name!r} are not separated",
                witness=sep.witness,
            )
    # one square and one search set-up per pair of sorts
    searches: dict[tuple[int, int], _Search] = {}
    relations: list[SortedRelation] = []
    for i, w1 in enumerate(omega):
        for j, w2 in enumerate(omega):
            sorts = (gens.index(w1.sort), gens.index(w2.sort))
            if sorts not in searches:
                same = w1.sort.size if sorts[0] == sorts[1] else None
                searches[sorts] = _relation_search(direct_product([w1.sort, w2.sort]), same)
            n2 = w2.sort.size
            for s in searches[sorts](leq_mask(w1, w2)):
                rows = tuple(s >> (a * n2) & ((1 << n2) - 1) for a in range(w1.sort.size))
                relations.append(SortedRelation(*sorts, i, j, rows))
    return AlterEgo(gens, spec, omega, tuple(relations), operations, minimality)


# ---------------------------------------------------------------------------
# the unary-operations criterion for unique maximal relations


def unique_max_applicable(algebra: FiniteAlgebra, spec: DReductSpec) -> bool:
    """True iff every basic operation is either part of the lattice structure
    or a unary (dual) lattice endomorphism of the reduct.

    When this holds, every bounded sublattice containing a subalgebra
    contains a largest one, so each relation set has at most one element.
    """
    lattice = d_reduct(algebra, spec)
    meet_tab = lattice.meet_table
    join_tab = lattice.join_table
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


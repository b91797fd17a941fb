"""Finite algebras as operation tables.

Everything lives on a universe ``0..n-1``; element names are metadata only.
Tables are flat tuples in row-major order over lexicographically ordered
argument tuples, so all values are immutable and hashable.  Each table also
has one read-only numpy array (:meth:`FiniteAlgebra.arrays`), which the
numpy readers share: the subpower kernel, products, the universal check,
term tables, the symmetry flags and the relation search.  Enumeration
outputs follow a documented total order (lexicographic over map vectors /
sorted element tuples) to keep results diff-stable.  An algebra keeps the
hom-sets out of it (:func:`hom_set`), each enumerated once.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from math import isqrt, prod
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded, InternalError, LatcopError, SignatureMismatch, UnknownSymbol

# points per sort that a structure product, such as M~^n, may have
DEFAULT_POINTS_CAP = 5000
# maps one hom-set may hold; End(heyting_chain(18)) has 2**16
HOM_MAP_BUDGET = 1 << 17
FIGURE_CEILING = 10**4300 - 1  # the largest number Python prints by default


@dataclass(frozen=True)
class Signature:
    """An operation signature: named symbols with fixed arities."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [s for s, _ in self.symbols]
        if len(set(names)) != len(names):
            raise LatcopError(f"duplicate symbol names in signature: {names}")
        for name, arity in self.symbols:
            # a table is indexed with one numpy array per argument, 63 at most
            if not 0 <= arity <= 63:
                raise LatcopError(f"arity {arity} of symbol {name!r} is outside 0..63")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.symbols)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise UnknownSymbol(f"symbol {name!r} not in signature")

    def index(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise UnknownSymbol(f"symbol {name!r} not in signature")

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)


@dataclass(frozen=True)
class Term:
    """A term tree: ``head`` is a variable index (int) or a symbol name (str)."""

    head: int | str
    args: tuple["Term", ...] = ()

    def __post_init__(self):
        if isinstance(self.head, int) and self.args:
            raise LatcopError("variable terms take no arguments")

    @property
    def is_var(self) -> bool:
        return isinstance(self.head, int)

    @property
    def max_var(self) -> int:
        """Largest variable index occurring in the term, or -1 if none."""
        if self.is_var:
            return self.head
        return max((a.max_var for a in self.args), default=-1)

    def validate(self, signature: Signature) -> None:
        if self.is_var:
            return
        if self.head not in signature:
            raise UnknownSymbol(f"symbol {self.head!r} not in signature")
        if signature.arity(self.head) != len(self.args):
            raise LatcopError(
                f"symbol {self.head!r} applied to {len(self.args)} arguments, "
                f"expected {signature.arity(self.head)}"
            )
        for a in self.args:
            a.validate(signature)

    def __str__(self) -> str:
        if self.is_var:
            return f"x{self.head}"
        if not self.args:
            return f"({self.head})"
        return "(" + self.head + " " + " ".join(map(str, self.args)) + ")"


def var(i: int) -> Term:
    return Term(i)


def app(symbol: str, *args: Term) -> Term:
    return Term(symbol, tuple(args))


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite algebra: universe ``0..size-1`` plus one table per symbol.

    ``tables`` is aligned with ``signature.symbols``; the table for an
    arity-k symbol has ``size**k`` entries indexed row-major (leftmost
    argument most significant).  A table may be passed in as a tuple or as
    an integer numpy array; ``tables`` holds tuples either way, and
    :meth:`arrays` one read-only array per table.  E(X), and so free
    algebras, and induced subalgebras get their tables from one subpower
    kernel, ``_subpower``, which runs on numpy over a given universe of
    element tuples: they are found through a trie with one level per
    coordinate, operations are evaluated coordinatewise on rectangles of
    argument tuples, and each argument tuple is evaluated once; a symbol
    commutative in every coordinate is evaluated on the lower half of its
    square only and its table filled by mirroring.  A full product needs
    no lookup: :func:`direct_product` builds each table as one broadcast
    sum of its factors' tables, and states how it numbers the elements.
    ``generators`` is set by :func:`free_algebra`.
    """

    name: str
    size: int
    signature: Signature
    tables: tuple[tuple[int, ...], ...]
    element_names: tuple[str, ...] | None = None
    generators: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise LatcopError(f"algebra {self.name!r} must have positive size")
        if len(self.tables) != len(self.signature.symbols):
            raise LatcopError(f"algebra {self.name!r}: one table per symbol required")
        arrays = []
        for (sym, arity), table in zip(self.signature.symbols, self.tables):
            if len(table) != self.size**arity:
                raise LatcopError(
                    f"algebra {self.name!r}: table for {sym!r} has {len(table)} "
                    f"entries, expected {self.size ** arity}"
                )
            array = table if isinstance(table, np.ndarray) else None
            if array is not None and array.dtype.kind not in "iu":
                raise LatcopError(f"algebra {self.name!r}: table for {sym!r} must hold integers")
            lo, hi = (min(table), max(table)) if array is None else (array.min(), array.max())
            if not (0 <= lo and hi < self.size):
                v = next(v for v in table if not 0 <= v < self.size)
                raise LatcopError(
                    f"algebra {self.name!r}: table entry {v} for {sym!r} "
                    f"outside universe 0..{self.size - 1}"
                )
            if array is not None:  # copied, so no outside reference can write to it
                array = np.array(array, _index_dtype(self.size))
                array.setflags(write=False)
            arrays.append(array)
        if self.element_names is not None and len(self.element_names) != self.size:
            raise LatcopError(f"algebra {self.name!r}: wrong number of element names")
        tables = tuple(t if a is None else tuple(a.tolist()) for t, a in zip(self.tables, arrays))
        object.__setattr__(self, "tables", tables)
        # attributes, not fields, so eq, hash and repr ignore them; a table
        # passed in as a tuple has None in ``_arrays`` until ``arrays()``.
        # ``_reducts`` keeps, per DReductSpec, what ``distlat.d_reduct``
        # validated; like ``_arrays`` it is shared by ``rename()`` copies.
        # ``_homs`` keeps hom(self, b) per target b (see :func:`hom_set`)
        object.__setattr__(self, "_arrays", arrays)
        object.__setattr__(self, "_reducts", {})
        object.__setattr__(self, "_homs", {})
        object.__setattr__(self, "_ops", tuple(
            (sym, arity, tab) for (sym, arity), tab in zip(self.signature.symbols, self.tables)
        ))

    # -- table access -------------------------------------------------------

    def table(self, symbol: str) -> tuple[int, ...]:
        return self.tables[self.signature.index(symbol)]

    def flat_index(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return idx

    def ops(self) -> tuple[tuple[str, int, tuple[int, ...]], ...]:
        """(symbol, arity, table) triples in signature order."""
        return self._ops

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Per symbol, its table as one read-only array in the dtype
        ``_index_dtype(size)``: kept from an array passed in, else built on
        first use in place, so a renamed copy shares it."""
        for i, array in enumerate(self._arrays):
            if array is None:
                self._arrays[i] = array = np.array(self.tables[i], _index_dtype(self.size))
                array.setflags(write=False)
        return tuple(self._arrays)

    def symmetric(self) -> tuple[bool, ...]:
        """Per symbol in signature order, whether it is binary with a
        symmetric table (equal to its transpose as an n x n array); built
        on first use and kept like ``ops()``.  A symmetric symbol is read
        on one of each pair of mirrored argument tuples by the map search
        and the closure, and on the lower half of its square by the subpower
        kernel (when it holds in every coordinate) and the universal check
        (in a for its rounds, in a and b for its final check)."""
        if "_symmetric" not in self.__dict__:
            n = self.size
            object.__setattr__(self, "_symmetric", tuple(
                arity == 2 and np.array_equal(t.reshape(n, n), t.reshape(n, n).T)
                for (_, arity, _), t in zip(self._ops, self.arrays())
            ))
        return self._symmetric

    def constants(self) -> tuple[int, ...]:
        return tuple(tab[0] for (_, arity), tab in zip(self.signature.symbols, self.tables) if arity == 0)

    def element_name(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def rename(self, name: str) -> "FiniteAlgebra":
        """A shallow copy under a new name: the tables are already
        validated and are shared, not scanned again.  The hom-sets are
        not, as each map names its source."""
        out = copy.copy(self)
        object.__setattr__(out, "name", name)
        object.__setattr__(out, "_homs", {})
        return out

    def __repr__(self) -> str:  # keep reprs short; tables can be huge
        return f"FiniteAlgebra({self.name!r}, size={self.size})"


def _check_same_signature(*algebras: FiniteAlgebra) -> None:
    sig = algebras[0].signature
    for a in algebras[1:]:
        if a.signature != sig:
            raise SignatureMismatch(
                f"{algebras[0].name!r} and {a.name!r} have different signatures"
            )


@dataclass(frozen=True)
class Homomorphism:
    """A map between same-signature algebras, stored as an image vector."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    map: tuple[int, ...]

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def is_valid(self) -> bool:
        """Whether the map lands in the target and commutes with every
        operation: the map search with one allowed value per element finds
        a map exactly when this one is a homomorphism."""
        if self.source.signature != self.target.signature:
            return False
        if len(self.map) != self.source.size or not all(0 <= v < self.target.size for v in self.map):
            return False
        return next(_maps(self.source, self.target, allowed=[1 << v for v in self.map]), None) is not None


# ---------------------------------------------------------------------------
# term evaluation


def term_table(algebra: FiniteAlgebra, term: Term, arity: int) -> tuple[int, ...]:
    """Row-major value table of a term viewed as an ``arity``-ary operation;
    each subterm is evaluated once, over the whole argument grid."""
    term.validate(algebra.signature)
    if term.max_var >= arity:
        raise LatcopError(f"term uses x{term.max_var} but only {arity} arguments given")
    n = algebra.size
    grid = np.indices((n,) * arity).reshape(arity, n**arity)  # row i: argument i
    arrays = algebra.arrays()

    def rec(t: Term):
        if t.is_var:
            return grid[t.head]
        flat = np.intp(0)  # the flat index its arguments spell, in intp: a table value times n may wrap
        for s in t.args:
            flat = flat * n + rec(s)
        return arrays[algebra.signature.index(t.head)][flat]

    table = rec(term)
    del rec  # it refers to itself through its cell: a cycle that would keep the grid
    return tuple(np.broadcast_to(table, n**arity).tolist())


# ---------------------------------------------------------------------------
# homomorphism enumeration


def _propagate(
    ops, a: FiniteAlgebra, b: FiniteAlgebra, img: list[int], assigned: list[int], start: int
) -> bool:
    """Close a partial map under the operations; False on conflict.

    ``assigned`` lists the elements ``img`` maps, and its tail from
    ``start`` is the worklist: it is walked in place while it grows, each
    element against every one listed before it or during its turn, so every
    operation instance among assigned elements is derived.  ``ops`` is the
    per-search pairing :func:`_maps` builds: (arity, table of a, table of b,
    symmetric in both) for each symbol of positive arity.  When both tables
    are symmetric the column instance f(y, x) repeats the row one f(x, y)
    and is skipped; when only one is, it can still conflict.
    """
    na, nb = a.size, b.size
    for x in itertools.islice(assigned, start, None):
        fx = img[x]
        for arity, ta, tb, sym in ops:
            if arity == 1:
                z, v = ta[x], tb[fx]
                w = img[z]
                if w == -1:
                    img[z] = v
                    assigned.append(z)
                elif w != v:
                    return False
            elif arity == 2:
                ra, rb = x * na, fx * nb
                for y in assigned:
                    fy = img[y]
                    z, v = ta[ra + y], tb[rb + fy]
                    w = img[z]
                    if w == -1:
                        img[z] = v
                        assigned.append(z)
                    elif w != v:
                        return False
                    if sym:
                        continue
                    z, v = ta[y * na + x], tb[fy * nb + fx]
                    w = img[z]
                    if w == -1:
                        img[z] = v
                        assigned.append(z)
                    elif w != v:
                        return False
            else:
                for rest in itertools.product(assigned, repeat=arity - 1):
                    for pos in range(arity):
                        args = rest[:pos] + (x,) + rest[pos:]
                        z, v = ta[a.flat_index(args)], tb[b.flat_index([img[y] for y in args])]
                        w = img[z]
                        if w == -1:
                            img[z] = v
                            assigned.append(z)
                        elif w != v:
                            return False
    return True


def _maps(
    a: FiniteAlgebra,
    b: FiniteAlgebra,
    allowed: Sequence[int] | None = None,
    injective: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Image vectors of the homomorphisms a -> b, depth first.

    Backtracking with forward propagation on an explicit stack.  An entry
    (img, used, x, v) stands for img with x sent to v; it is copied and
    closed under the operations only when popped, so the first map costs
    no more than in a recursive search.  The search branches on the first
    unassigned element, trying values in ascending order, so the maps come
    out in lexicographic order.  ``allowed[x]`` is a bitmask of the images
    x may take; with ``injective`` a map that sends two elements to one
    value is pruned.  The per-symbol pairing that
    :func:`_propagate` reads is built once here, for the whole search, and
    each entry carries its list of assigned elements, so no node scans the
    map for them.
    """
    if allowed is None:
        allowed = [(1 << b.size) - 1] * a.size
    ops = [
        (arity, ta, tb, sa and sb)
        for (_, arity, ta), (_, _, tb), sa, sb in zip(a.ops(), b.ops(), a.symmetric(), b.symmetric())
        if arity
    ]

    def close(img: list[int], assigned: list[int], used: int, start: int) -> int | None:
        """Propagate from ``assigned[start:]`` and check every element it
        lists from there; the new used-value mask, or None."""
        if not _propagate(ops, a, b, img, assigned, start):
            return None
        for x in itertools.islice(assigned, start, None):
            bit = 1 << img[x]
            if not allowed[x] & bit or injective and used & bit:
                return None
            used |= bit
        return used

    root, assigned = [-1] * a.size, []
    for (_, arity, ta), (_, _, tb) in zip(a.ops(), b.ops()):
        if arity == 0:
            if root[ta[0]] == -1:
                assigned.append(ta[0])
            elif root[ta[0]] != tb[0]:
                return
            root[ta[0]] = tb[0]
    used = close(root, assigned, 0, 0)
    stack = [] if used is None else [(root, assigned, used, -1, 0)]
    while stack:
        img, assigned, used, x, v = stack.pop()
        if x != -1:
            img = list(img)
            img[x] = v
            assigned = assigned + [x]
            used = close(img, assigned, used, len(assigned) - 1)
            if used is None:
                continue
        if len(assigned) == a.size:
            yield tuple(img)
            continue
        x = img.index(-1)
        values = allowed[x] & ~used if injective else allowed[x]
        while values:  # highest first, so the least value is popped first
            v = values.bit_length() - 1
            values ^= 1 << v
            stack.append((img, assigned, used, x, v))


def hom_enumerate(a: FiniteAlgebra, b: FiniteAlgebra) -> list[Homomorphism]:
    """All homomorphisms a -> b, sorted lexicographically by map vector;
    CapExceeded past ``HOM_MAP_BUDGET`` maps."""
    _check_same_signature(a, b)
    out = []
    for m in _maps(a, b):
        if len(out) == HOM_MAP_BUDGET:
            raise CapExceeded(
                f"hom({a.name}, {b.name}) has more than {HOM_MAP_BUDGET} maps",
                required=HOM_MAP_BUDGET + 1, stage="hom enumeration", budget=HOM_MAP_BUDGET,
            )
        out.append(Homomorphism(a, b, m))
    return out


def hom_set(a: FiniteAlgebra, b: FiniteAlgebra) -> list[Homomorphism]:
    """hom(a, b), kept on ``a`` per value-equal target and enumerated on
    first use; a stopped enumeration keeps nothing."""
    homs = a._homs.get(b)
    if homs is None:
        homs = a._homs[b] = hom_enumerate(a, b)
    return homs


def embeds(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    """The lexicographically least injective homomorphism a -> b, or None."""
    if a.signature != b.signature or a.size > b.size:
        return None
    found = next(_maps(a, b, injective=True), None)
    return Homomorphism(a, b, found) if found is not None else None


def isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> Homomorphism | None:
    """The lexicographically least isomorphism a -> b, or None: between
    finite algebras of one size an injective homomorphism is a bijection,
    and a bijective homomorphism is an isomorphism."""
    return embeds(a, b) if a.size == b.size else None


# ---------------------------------------------------------------------------
# subuniverses


def subuniverse_closure(algebra: FiniteAlgebra, seed: Iterable[int]) -> frozenset[int]:
    """Least subset containing ``seed`` and all nullary values, closed under
    every table."""
    return frozenset(_closure(algebra, seed))


def _closure(algebra: FiniteAlgebra, seed: Iterable[int]) -> Iterator[int]:
    """The members of :func:`subuniverse_closure`, each yielded once when
    found, the seed and nullary values first, so a reader may stop early.

    Worklist saturation on the growing member list, walked in place: each
    member meets every one listed before it or during its turn, so every
    operation instance among members is evaluated.  A symmetric binary
    table is read once per pair, the column read repeating the row one.
    """
    n = algebra.size
    members = list(dict.fromkeys(itertools.chain(seed, algebra.constants())))
    for x in members:
        if not 0 <= x < n:
            raise LatcopError(f"seed element {x} outside universe")
    yield from members
    inside = set(members)
    ops = [(arity, tab, sym) for (_, arity, tab), sym in zip(algebra.ops(), algebra.symmetric()) if arity]
    for x in members:
        for arity, tab, sym in ops:
            if arity == 1:
                z = tab[x]
                if z not in inside:
                    inside.add(z)
                    members.append(z)
                    yield z
            elif arity == 2:
                row = x * n
                for y in members:
                    z = tab[row + y]
                    if z not in inside:
                        inside.add(z)
                        members.append(z)
                        yield z
                    if not sym:
                        z = tab[y * n + x]
                        if z not in inside:
                            inside.add(z)
                            members.append(z)
                            yield z
            else:
                for rest in itertools.product(members, repeat=arity - 1):
                    for pos in range(arity):
                        z = tab[algebra.flat_index(rest[:pos] + (x,) + rest[pos:])]
                        if z not in inside:
                            inside.add(z)
                            members.append(z)
                            yield z


def subuniverses(algebra: FiniteAlgebra) -> list[frozenset[int]]:
    """All nonempty subuniverses, by breadth-first closure extension.

    Deterministic order: sorted by (size, sorted element tuple).
    """
    base = subuniverse_closure(algebra, ())
    # with no constants base is empty, and extending it gives the singletons
    seen = {base} if base else set()
    queue = [base]
    while queue:
        s = queue.pop()
        for x in range(algebra.size):
            if x in s:
                continue
            t = subuniverse_closure(algebra, tuple(s) + (x,))
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def induced_subalgebra(algebra: FiniteAlgebra, elements: Iterable[int]) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The algebra induced on a subuniverse; returns it with the element list
    (position i of the result is ``elements_sorted[i]`` of the parent).

    Its tables are the subpower kernel's on the given universe of the
    one-factor product, which keeps the universe's order and raises at the
    first symbol it is not closed under."""
    elems = tuple(sorted(set(elements)))
    if not elems:
        raise LatcopError("subalgebra universe must be nonempty")
    if elems[0] < 0 or elems[-1] >= algebra.size:
        raise LatcopError(f"{sorted(elems)} is not a subset of the universe of {algebra.name!r}")
    try:
        tables = _subpower(algebra.signature, [algebra], [(x,) for x in elems])
    except InternalError as exc:  # the caller's set, not a broken kernel
        raise LatcopError(str(exc)) from None
    names = None
    if algebra.element_names is not None:
        names = tuple(algebra.element_names[x] for x in elems)
    name = algebra.name
    if len(elems) < algebra.size:
        name += f"|{{{','.join(str(x) for x in elems)}}}"
    return FiniteAlgebra(name, len(elems), algebra.signature, tables, names), elems


# ---------------------------------------------------------------------------
# subpowers


# Argument tuples are evaluated in blocks of at most this many table reads
# (tuples times coordinates), so the kernel's temporaries stay bounded
# however large the subpower is.
_BLOCK = 1 << 14

# Most table entries (the sum of size**arity over the symbols) one algebra
# may have built: a product checks it before allocating, E(X) per solution.
TABLE_ENTRY_BUDGET = 10**7


def _charge_tables(signature: Signature, count: int) -> None:
    """CapExceeded when tables on ``count`` elements need more than
    ``TABLE_ENTRY_BUDGET`` entries."""
    required = min(sum(_bounded(count, r, TABLE_ENTRY_BUDGET) for _, r in signature.symbols), FIGURE_CEILING)
    if required > TABLE_ENTRY_BUDGET:
        raise CapExceeded(
            f"subpower tables need {required}+ entries, budget is {TABLE_ENTRY_BUDGET}",
            required=required, stage="table build", budget=TABLE_ENTRY_BUDGET,
        )


def _table_capacity(signature: Signature) -> int:
    """The most elements whose tables fit ``TABLE_ENTRY_BUDGET`` (the budget
    itself when more fit): a count at most this passes
    :func:`_charge_tables`.  Bisected once per signature and budget."""
    return _capacity(signature, TABLE_ENTRY_BUDGET)


@functools.cache
def _capacity(signature: Signature, budget: int) -> int:
    lo, hi = 0, budget
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if sum(mid**r for _, r in signature.symbols) <= budget else (lo, mid - 1)
    return lo


def _index_dtype(count: int) -> np.dtype:
    """The narrowest unsigned dtype holding the indices ``0..count-1``."""
    return np.min_scalar_type(max(count - 1, 0))


def _slabs(
    arity: int, old: int, new: int, first: bool, step: int, half: bool
) -> list[tuple[slice, ...]]:
    """The argument tuples one semi-naive round evaluates, as rectangles of
    the index grid of at most ``step`` tuples each (see :func:`_chunks`):
    with ``old`` elements from earlier rounds and ``new`` from the last
    one, old^p x new x (old+new)^(arity-1-p) for each p < arity.  These
    partition the tuples over the first old + new elements that use a new
    one, so over all rounds each tuple is met exactly once.  A nullary
    symbol's one empty tuple belongs to the ``first`` round.  The subpower
    kernel reads a given universe as one first round with ``old`` = 0.

    With ``half`` (a commutative binary symbol) only the lower half of the
    square is evaluated, the caller mirroring it: the new rows against the
    columns [0, r1), in row chunks [r0, r1) of at most ``step`` tuples (one
    row at least).  Each unordered pair is met once, except that a chunk's
    diagonal block [r0, r1)^2 holds both orders of its pairs.
    """
    if not arity:
        return [()] if first else []
    if not new:
        return []
    if half:
        slabs, r0 = [], old
        while r0 < old + new:
            # the largest r1 with (r1 - r0) * r1 <= step
            r1 = min(old + new, max(r0 + 1, (r0 + isqrt(r0 * r0 + 4 * step)) // 2))
            slabs.append((slice(r0, r1), slice(0, r1)))
            r0 = r1
    else:
        slabs = [
            (slice(0, old),) * p + (slice(old, old + new),) + (slice(0, old + new),) * (arity - 1 - p)
            for p in range(arity if old else 1)
        ]
    return [sub for slab in slabs for sub in _chunks(slab, step)]


def _chunks(slab: tuple[slice, ...], step: int) -> Iterator[tuple[slice, ...]]:
    """``slab`` cut into rectangular sub-slabs of at most ``step`` tuples, in
    row-major order: the trailing axes that fit stay whole, the axis before
    them is cut into pieces, and the axes before that are walked one index
    at a time."""
    shape = [s.stop - s.start for s in slab]
    cut, inner = len(slab), 1
    while cut and inner * shape[cut - 1] <= step:
        cut -= 1
        inner *= shape[cut]
    if not cut:
        yield slab
        return
    axis, piece = slab[cut - 1], step // inner
    for head in itertools.product(*(range(s.start, s.stop) for s in slab[: cut - 1])):
        for lo in range(axis.start, axis.stop, piece):
            yield tuple(slice(h, h + 1) for h in head) + (slice(lo, min(lo + piece, axis.stop)),) + slab[cut:]


def _spread(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The sum over a rectangle of one array per axis: the last axis of
    ``parts[i]`` is laid along the rectangle's axis i and broadcast over the
    others, any leading axes kept in front.  No parts sum to one zero."""
    k = len(parts)
    laid = [
        p.reshape(p.shape[:-1] + (1,) * i + p.shape[-1:] + (1,) * (k - 1 - i)) for i, p in enumerate(parts)
    ]
    return sum(laid[1:], laid[0]) if laid else np.zeros(1, np.intp)


class _Product:
    """The product of ``coords`` as the subpower kernel sees it, with the
    tuples ``universe`` as its rows.

    The rows are the columns of a (coordinates, rows) array, numbered in
    the order given and found through a trie with one dense level per
    coordinate.  Level c has a block of |M_c| entries per prefix the rows
    have, then one for absent prefixes; entry (prefix id) * |M_c| + (value
    at c) holds where the extended prefix's block starts in level c + 1,
    the absent one if no row has it, so a tuple that is not a row stays
    absent.  The last level holds row numbers, the row count for absent.
    Prefix ids are ranks in sorted order, so no mixed-radix key can
    overflow.  Per symbol the coordinates' flat tables are concatenated,
    ``offsets`` saying where each one starts.  The empty product gets one
    coordinate, the trivial algebra, so no row is empty.
    """

    def __init__(self, signature: Signature, coords: Sequence[FiniteAlgebra], universe: Sequence[tuple[int, ...]]):
        self.sizes = [c.size for c in coords] or [1]
        dtype = _index_dtype(max(self.sizes))
        arrays = [c.arrays() for c in coords] or [(np.zeros(1, dtype),) * len(signature.symbols)]
        self.ops = []
        for (sym, arity), column in zip(signature.symbols, zip(*arrays)):
            lengths = [len(t) for t in column]
            flat = np.concatenate(column, dtype=dtype)
            offsets = np.cumsum([0] + lengths[:-1], dtype=np.intp)[:, None]
            self.ops.append((sym, arity, flat, offsets))
        self.radix = np.array(self.sizes, dtype=np.intp)[:, None]
        # per symbol, whether it is commutative in every coordinate
        self.commutative = [
            arity == 2 and all(c.symmetric()[i] for c in coords)
            for i, (_, arity) in enumerate(signature.symbols)
        ]
        tuples = [t or (0,) for t in universe]  # () is the trivial row
        self.rows = np.array(tuples, dtype).reshape(len(tuples), len(self.sizes)).T
        # the trie, each level's prefixes sorted by counting over its dense range
        self.levels = []
        at, width = self.rows[0], 2 * self.sizes[0]  # the empty prefix, then absent
        for size, col in zip(self.sizes[1:], self.rows[1:]):
            present = np.bincount(at, minlength=width).nonzero()[0]
            start = len(present) * size  # of the absent block
            level = np.full(width, start, _index_dtype(start + size))
            level[present] = np.arange(0, start, size)
            self.levels.append(level)
            at, width = level.take(at) + col, start + size
        self.last = np.full(width, len(tuples), _index_dtype(len(tuples) + 1))
        self.last[at] = np.arange(len(tuples))

    def weigh(self, op) -> list[np.ndarray]:
        """Per argument of ``op``, the rows times its place value in each
        coordinate's flat table (the first plus the offsets), in the
        narrowest dtype that indexes the flat tables."""
        _, arity, flat, offsets = op
        return [
            (self.rows * self.radix ** (arity - 1 - i) + (0 if i else offsets)).astype(_index_dtype(len(flat)))
            for i in range(arity)
        ]

    def evaluate(self, op, weights: list[np.ndarray], slab: tuple[slice, ...]) -> np.ndarray:
        """The columns ``op`` gives on the argument tuples of ``slab``, a
        rectangle of row numbers, in row-major order: computed
        coordinatewise by adding slices of the rows' ``weights``, broadcast
        one argument per axis."""
        _, _, flat, offsets = op
        if not slab:
            return flat[offsets]
        idx = _spread([w[:, s] for w, s in zip(weights, slab)])
        return flat.take(idx).reshape(len(offsets), -1)

    def find(self, vals: np.ndarray) -> np.ndarray:
        """The row number of each column of ``vals``, the row count where
        it is not a row: per coordinate one gather and one add."""
        at = vals[0]
        for level, v in zip(self.levels, vals[1:]):
            at = level.take(at) + v
        return self.last.take(at)


def _subpower(
    signature: Signature,
    coords: Sequence[FiniteAlgebra],
    universe: Sequence[tuple[int, ...]],
) -> tuple[np.ndarray, ...]:
    """The tables of the subalgebra of the product of ``coords`` on the
    element tuples ``universe``, in the order given, with operations
    applied coordinatewise: flat arrays in the dtype ``_index_dtype`` of
    the element count.

    Each argument tuple is evaluated once, in rectangles of row numbers of
    at most ``_BLOCK`` table reads (see :func:`_slabs`), and its results,
    looked up in the trie of :class:`_Product`, are the tables.  A binary
    symbol commutative in every coordinate is evaluated on the lower half
    of its square only (a chunk's diagonal block in both orders) and the
    rest of its table filled by mirroring: a mirrored tuple has the same
    value in every coordinate, so the closedness check loses nothing.
    InternalError is raised at the first symbol whose values leave
    ``universe`` (callers pass closed universes).  The callers bound the
    tables: E(X) charges ``TABLE_ENTRY_BUDGET`` per solution, and an
    induced subalgebra is no larger than its algebra.
    """
    count = len(universe)
    product = _Product(signature, coords, universe)
    step = max(1, _BLOCK // len(product.sizes))
    tables = []
    for op, commutative in zip(product.ops, product.commutative):
        weights = product.weigh(op)
        table = np.empty((count,) * op[1], _index_dtype(count))
        for sub in _slabs(op[1], 0, count, True, step, commutative):
            res = product.find(product.evaluate(op, weights, sub))
            if (res == count).any():
                raise InternalError(f"subpower universe is not closed under {op[0]!r}")
            table[sub] = res.reshape([s.stop - s.start for s in sub])
            if commutative:
                table[sub[::-1]] = table[sub].T
        tables.append(table.ravel())
    return tuple(tables)


def _extends_to_hom(
    a: FiniteAlgebra, b: FiniteAlgebra, seeds: dict[int, tuple[int, ...]], width: int
) -> bool:
    """True iff the values ``seeds`` prescribes, a -> b^width, extend to a
    homomorphism on all of a: exactly when the subalgebra of a x b^width
    generated by the rows (x, seeds[x]) and the nullary values is the graph
    of a total function on a.

    First the values are extended over a's own tables by semi-naive
    rounds (see :func:`_slabs`): an element reached for the first time takes
    the value its witness tuple gives in b^width.  A symbol commutative in
    a reaches the same elements from the lower half of its square, so only
    that half is read.  Every value is then forced by the seeds, so the
    subalgebra is that graph exactly when all of a is reached and the
    (size, width) value matrix commutes with every operation, which is
    checked chunk by chunk over a's tables: on the lower half of the square
    for a symbol commutative in both a and b, whose two sides are then
    symmetric.
    """
    n, m = a.size, b.size
    value = np.zeros((n, width), _index_dtype(m))
    reached = np.zeros(n, dtype=bool)
    order = np.array(list(seeds), np.intp)  # reached elements, in order
    value[order] = np.array(list(seeds.values()), value.dtype).reshape(len(order), width)
    reached[order] = True
    ops = [
        (arity, ta, tb, sa, sa and sb)
        for (_, arity, _), ta, tb, sa, sb in zip(
            a.ops(), a.arrays(), b.arrays(), a.symmetric(), b.symmetric()
        )
    ]
    old = 0
    for round_ in itertools.count():
        count = len(order)
        if count == n:
            break
        before = reached.copy()
        for arity, ta, tb, sa, _ in ops:
            for sub in _slabs(arity, old, count - old, round_ == 0, _BLOCK, sa):
                xs = [order[s] for s in sub]
                at = _spread([x * n ** (arity - 1 - i) for i, x in enumerate(xs)])
                z = ta.take(at).ravel()
                fresh = np.flatnonzero(~reached[z])
                if len(fresh):
                    vat = np.zeros((len(fresh), width), np.intp)
                    for x, i in zip(xs, np.unravel_index(fresh, at.shape)):
                        vat *= m
                        vat += value[x[i]]
                    value[z[fresh]] = tb[vat]
                    reached[z[fresh]] = True
        added = np.flatnonzero(reached & ~before)
        if not len(added):
            return False
        order = np.concatenate([order, added])
        old = count
    # the check, per chunk of argument tuples: a's values under the value
    # matrix against b's on the matrix's columns
    vt = np.ascontiguousarray(value.T, np.intp)
    step = max(1, _BLOCK // max(width, 1))
    for arity, ta, tb, _, both in ops:
        for sub in _slabs(arity, 0, n, True, step, both):
            z = ta.reshape((n,) * arity)[sub]
            vat = _spread([vt[:, s] * m ** (arity - 1 - i) for i, s in enumerate(sub)])
            if not (vt.take(z, axis=1) == tb.take(vat)).all():
                return False
    return True


# ---------------------------------------------------------------------------
# products


def _bounded(base: int, exp: int, cap: int) -> int:
    """min(base**exp, L) for base >= 0, where L = max(cap + 1, FIGURE_CEILING)
    is past both the cap and the printable figures; no number past L**2 is formed."""
    limit = max(cap + 1, FIGURE_CEILING)
    return limit if exp * (base.bit_length() - 1) >= limit.bit_length() else min(base**exp, limit)


def direct_product(algebras: Sequence[FiniteAlgebra]) -> FiniteAlgebra:
    """Componentwise product of one or more algebras.  Its elements are the
    factor tuples numbered row-major, leftmost factor most significant (the
    rule :meth:`FiniteAlgebra.flat_index` uses for table positions): (a, b)
    of A x B is a * B.size + b, read back with ``divmod``.

    A full product is closed, so each table is one broadcast sum: with k
    factors of more than one element, the table of an arity-r symbol has
    the axes (argument i, factor j) at i*k + j, and factor j's table,
    weighted by the place value of j, lies on the axes j, k + j, ...
    CapExceeded is raised, before any table is built, for more than
    ``TABLE_ENTRY_BUDGET`` table entries.
    """
    if not algebras:
        raise LatcopError("a product needs at least one factor")
    _check_same_signature(*algebras)
    signature = algebras[0].signature
    size = prod(a.size for a in algebras)
    _charge_tables(signature, size)
    # a one-element factor adds 0 everywhere, so it gets no axes
    dtype = _index_dtype(size)
    factors = [(a, prod(b.size for b in algebras[j + 1:])) for j, a in enumerate(algebras) if a.size > 1]
    k = len(factors)
    tables = []
    for i, (_, arity) in enumerate(signature.symbols):
        table = np.zeros(tuple(a.size for a, _ in factors) * arity, dtype)
        for j, (a, place) in enumerate(factors):
            axes = [1] * (k * arity)
            axes[j::k] = [a.size] * arity
            # the factor's narrower dtype widens to ``dtype`` in the product
            table += a.arrays()[i].reshape(axes) * dtype.type(place)
        tables.append(table.ravel())
    return FiniteAlgebra("x".join(a.name for a in algebras), size, signature, tuple(tables))


# ---------------------------------------------------------------------------
# quasivariety membership


def _relabel(raw: Iterable[Hashable]) -> list[int]:
    """Each value replaced by the number of distinct values before its
    first occurrence, so equal partitions get equal label lists."""
    labels: dict[Hashable, int] = {}
    return [labels.setdefault(v, len(labels)) for v in raw]


def in_isp(algebra: FiniteAlgebra, generators: Sequence[FiniteAlgebra]) -> bool:
    """True iff every pair of distinct elements is separated by a
    homomorphism into some generator."""
    for m in generators:
        _check_same_signature(algebra, m)
    return _separated(algebra, (h for m in generators for h in hom_set(algebra, m)))


def _separated(algebra: FiniteAlgebra, homs: Iterable[Homomorphism]) -> bool:
    """True iff the kernels of ``homs`` meet to the diagonal: each map
    refines the blocks so far, and ``homs`` is read only until they are
    singletons."""
    n = algebra.size
    if n == 1:
        return True
    blocks = [0] * n
    for h in homs:
        blocks = _relabel(zip(blocks, h.map))
        if max(blocks) == n - 1:
            return True
    return False


# ---------------------------------------------------------------------------
# free algebras


def free_algebra(
    generators: Sequence[FiniteAlgebra],
    n: int,
    cap: int = DEFAULT_POINTS_CAP,
) -> FiniteAlgebra:
    """Free algebra on n generators in ISP(generators), as E(M~^n).

    M~ is the piggyback alter ego on the generators, read as a structure:
    each sort's elements are its points, and its relations and operations
    are as they stand.  The morphisms M~^n -> M~ form the free algebra,
    and its n free generators are the projections (Clark & Davey, *Natural
    Dualities for the Working Algebraist*, 1998, ch. 2); the ``generators``
    field of the result holds them in order.  E lists the morphisms in lexicographic
    order of their values, sort-major, which is the order of their tuples
    in the product over (generator, assignment of the n variables).

    The reduct spec is the first one the first generator keeps that every
    generator keeps too (see ``distlat.d_reduct``); any such spec gives
    the same maps.  One-element and repeated generators add no morphisms and
    are left out of M~; over one-element generators only, F(n) has one
    element.  CapExceeded is raised when a sort of M~^n, |M|^n points,
    exceeds ``cap``, or, over one-element generators only, when n does.
    """
    from .duality import MultisortedStructure, _check_points, e_functor, structure_product
    from .piggyback import build_alter_ego

    if not generators:
        raise LatcopError("free algebra needs at least one generating algebra")
    if n < 0:
        raise LatcopError(f"free algebra needs a non-negative number of generators, got {n}")
    _check_same_signature(*generators)
    sig = generators[0].signature
    spec = next((s for s in generators[0]._reducts if all(s in m._reducts for m in generators)), None)
    if spec is None:
        raise LatcopError("free algebra needs a lattice reduct validated on every generating algebra")
    name = f"Free({'+'.join(m.name for m in generators)},{n})"
    sorts = [m for i, m in enumerate(generators) if m.size > 1 and m not in generators[:i]]
    if not sorts:
        if n > cap:
            required = min(n, FIGURE_CEILING)
            raise CapExceeded(
                f"free algebra on {required} generators exceeds the cap {cap}",
                required=required, stage="free algebra", budget=cap,
            )
        return FiniteAlgebra(name, 1, sig, tuple((0,) for _ in sig.symbols), generators=(0,) * n)
    _check_points([_bounded(m.size, n, cap) for m in sorts], cap)  # before a list of n factors is built
    ego = build_alter_ego(sorts, spec)
    m_tilde = MultisortedStructure(
        ego,
        tuple(tuple(range(m.size)) for m in sorts),
        tuple(r.rows for r in ego.relations),
        tuple(g.map for g in ego.operations),
    )
    power = structure_product([m_tilde] * n, cap, ego=ego)
    e_res = e_functor(power)
    index = {vec: k for k, vec in enumerate(e_res.morphisms)}
    projections = (tuple(v[i] for sort in power.points for v in sort) for i in range(n))
    free = e_res.algebra.rename(name)  # E(X)'s tables are validated: shared, not scanned again
    object.__setattr__(free, "generators", tuple(index[p] for p in projections))
    return free

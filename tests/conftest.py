"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the code paths they check: homomorphisms by
filtering all maps, maximal subuniverses by subset enumeration, least
congruences by scanning all partitions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest

from latcop.algebra import FiniteAlgebra, Signature
from latcop.catalog import make
from latcop.classify import flowchart_classify
from latcop.distlat import d_reduct
from latcop.piggyback import build_alter_ego, sep_condition


@lru_cache(maxsize=None)
def ego_for(constructor: str, *params):
    entry = make(constructor, *params)
    return build_alter_ego([entry.algebra], entry.spec)


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


def pointwise_tables(coords, elements) -> tuple[tuple[int, ...], ...]:
    """Tables of the subalgebra of prod(coords) on the tuples ``elements``
    (a list, order kept), evaluated coordinate by coordinate with
    ``FiniteAlgebra.op`` only."""
    tables = []
    for sym, arity in coords[0].signature.symbols:
        tables.append(tuple(
            elements.index(tuple(c.op(sym, [a[i] for a in args]) for i, c in enumerate(coords)))
            for args in itertools.product(elements, repeat=arity)
        ))
    return tuple(tables)


def pointwise_closure(coords, generators) -> list[tuple[int, ...]]:
    """Sorted subuniverse of prod(coords) generated by ``generators`` and
    the nullary values, by full passes with ``FiniteAlgebra.op`` only."""
    found = set(generators)
    while True:
        new = {
            tuple(c.op(sym, [a[i] for a in args]) for i, c in enumerate(coords))
            for sym, arity in coords[0].signature.symbols
            for args in itertools.product(sorted(found), repeat=arity)
        }
        if new <= found:
            return sorted(found)
        found |= new


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


def bounds_preserved(algebra: FiniteAlgebra, spec) -> bool:
    """Every unary basic operation maps {bot, top} into {bot, top}."""
    lattice = d_reduct(algebra, spec)
    bounds = {lattice.bot, lattice.top}
    return all(
        tab[lattice.bot] in bounds and tab[lattice.top] in bounds
        for _, arity, tab in algebra.ops()
        if arity == 1
    )


def minimal_omega_by_sep(generators, carriers):
    """The minimum separating carrier set as (omega, size, alternatives,
    smaller sizes failed), by calling ``sep_condition`` on every
    combination of ``carriers`` in increasing size."""
    failed = []
    for size in range(1, len(carriers) + 1):
        winners = [
            combo
            for combo in itertools.combinations(carriers, size)
            if sep_condition(generators, combo).holds
        ]
        if winners:
            return winners[0], size, len(winners) - 1, tuple(failed)
        failed.append(size)
    return None


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

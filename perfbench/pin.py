"""Recompute the expected answers pinned in ``workloads.py`` by second paths.

    python3 perfbench/pin.py

Run from the root of a checkout; takes about half a minute.  It is not part
of a benchmark run: it is run once when expected answers are pinned, and
again whenever a pinned value is in doubt.  It exits 1 if any pinned value
disagrees with its recomputation.

- Verdicts: the pinned (E, S) must equal the catalog's expected verdict.
- Coproduct sizes: the subalgebra of prod_M M^(Hom(B1,M) x ... x Hom(Bk,M))
  generated by the images of the Bi, with homomorphisms found by brute force
  and the closure computed here, not by latcop.duality.
- De Morgan coproducts (E and S hold): the number of down-sets of the
  product of the join-irreducible posets of the lattice reducts.
- Free algebras: the subalgebra of M^(M^n) generated by the projections,
  computed here, not by latcop.algebra.free_algebra.
- F(1) + F(1) is isomorphic to F(2), checked with latcop.algebra.isomorphic
  (about 9 s per pair).
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from latcop import catalog  # noqa: E402
from latcop.algebra import free_algebra, isomorphic  # noqa: E402
from latcop.distlat import d_reduct  # noqa: E402
from latcop.duality import coproduct  # noqa: E402
from workloads import CONSTRUCT, LADDER, SRC_PRIESTLEY, TABLE1  # noqa: E402


def algebra_of(cid: str):
    if cid.startswith("F1:"):
        return free_algebra([catalog.make_id(cid[3:]).algebra], 1)
    return catalog.make_id(cid).algebra


def homs_brute(a, b) -> list[tuple[int, ...]]:
    """Every map a -> b that commutes with every operation, by exhaustion."""
    found = []
    ops = list(zip(a.ops(), b.ops()))
    for img in itertools.product(range(b.size), repeat=a.size):
        if all(
            img[ta[a.flat_index(args)]] == tb[b.flat_index([img[x] for x in args])]
            for (_, arity, ta), (_, _, tb) in ops
            for args in itertools.product(range(a.size), repeat=arity)
        ):
            found.append(img)
    return found


def closure_size(coord_algebras, seeds) -> int:
    """Size of the subalgebra of prod(coord_algebras) generated by ``seeds``."""
    sig = coord_algebras[0].signature
    tabs = {sym: [m.table(sym) for m in coord_algebras] for sym, _ in sig.symbols}
    sizes = [m.size for m in coord_algebras]
    elems = {tuple(tab[0] for tab in tabs[sym]) for sym, ar in sig.symbols if ar == 0}
    elems |= set(seeds)
    frontier = list(elems)
    while frontier:
        new = set()
        current = list(elems)
        for t in frontier:
            for sym, arity in sig.symbols:
                if arity == 1:
                    new.add(tuple(tab[x] for tab, x in zip(tabs[sym], t)))
                elif arity == 2:
                    for u in current:
                        new.add(tuple(tab[x * n + y] for tab, n, x, y in zip(tabs[sym], sizes, t, u)))
                        new.add(tuple(tab[y * n + x] for tab, n, x, y in zip(tabs[sym], sizes, t, u)))
                elif arity > 2:
                    raise NotImplementedError("operations of arity above 2")
        frontier = list(new - elems)
        elems |= new
    return len(elems)


def coproduct_by_subpower(family: list, generators: list) -> int:
    coords, seeds = [], [[] for _ in family]
    for m in generators:
        for combo in itertools.product(*[homs_brute(b, m) for b in family]):
            coords.append(m)
            for i, (b, h) in enumerate(zip(family, combo)):
                seeds[i].append([h[x] for x in range(b.size)])
    gens = [tuple(col[x] for col in seeds[i]) for i, b in enumerate(family) for x in range(b.size)]
    return closure_size(coords, gens)


def coproduct_by_priestley(family: list, spec) -> int:
    posets = []
    for b in family:
        lat = d_reduct(b, spec)
        ji = [
            x for x in range(lat.size)
            if x != lat.bot and not any(
                lat.join(y, z) == x and y != x and z != x
                for y in range(lat.size) for z in range(lat.size)
            )
        ]
        posets.append([(x, [y for y in ji if lat.leq(y, x)]) for x in ji])
    points = list(itertools.product(*[[x for x, _ in p] for p in posets]))
    below = {
        pt: [q for q in points if all(qi in dict(p)[pi] for qi, pi, p in zip(q, pt, posets))]
        for pt in points
    }
    count = 0
    for mask in range(1 << len(points)):
        chosen = {pt for i, pt in enumerate(points) if mask >> i & 1}
        if all(q in chosen for pt in chosen for q in below[pt]):
            count += 1
    return count


def free_by_subpower(m, n: int) -> int:
    assignments = list(itertools.product(range(m.size), repeat=n))
    projections = [tuple(v[i] for v in assignments) for i in range(n)]
    return closure_size([m] * len(assignments), projections)


def main() -> int:
    rows = []
    for entry, expected in catalog.table1_suite():
        req = next(r for r in TABLE1 if r.family[0] == entry.key)
        rows.append((req.rid, req.expected, {"E": expected[0], "S": expected[1]}, "catalog.table1_suite"))
    for req in LADDER:
        e, s = catalog.make_id(req.family[0]).expected
        rows.append((req.rid, req.expected, {"E": e, "S": s}, "catalog expected"))
    for req in CONSTRUCT:
        if req.kind == "free":
            m = algebra_of(req.generators[0])
            rows.append((req.rid, req.expected, {"size": free_by_subpower(m, req.rank)}, "subpower closure"))
            continue
        family = [algebra_of(b) for b in req.family]
        generators = [algebra_of(g) for g in req.generators]
        rows.append((req.rid, req.expected, {"size": coproduct_by_subpower(family, generators)}, "subpower closure"))
        if req.source == SRC_PRIESTLEY:
            spec = catalog.make_id(req.generators[0]).spec
            rows.append((req.rid, req.expected, {"size": coproduct_by_priestley(family, spec)}, "Priestley product"))
        if req.family[0].startswith("F1:"):
            m = catalog.make_id(req.generators[0])
            c = coproduct([m.algebra], m.spec, None, family).algebra
            f2 = free_algebra([m.algebra], 2, cap=m.algebra.size ** (m.algebra.size**2))
            iso = isomorphic(c, f2) is not None
            rows.append((req.rid, req.expected, {"size": f2.size} if iso else {"iso": False}, "F(1)+F(1) ~ F(2)"))
    bad = 0
    for rid, pinned, got, how in rows:
        ok = pinned == got
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {rid:66s} {how:22s} pinned {pinned} got {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Constructors for the named finite algebras, with reduct terms, documented
carrier maps, and the expected E/S classifications.  The bit lattices are
stated once: demorgan4's diamond as two bits, and the Moisil chains and the
pre-Moisil algebras as a bit lattice times a chain, built by one
:func:`_times_chain`.

Two classification-table rows are deliberately not reproduced: the
quantifier-lattice varieties (generators D_pq) and non-singly-generated
Heyting varieties, whose generating algebras are outside the catalog's
scope.  See UNVERIFIED_TABLE_ROWS.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache

from .algebra import TABLE_ENTRY_BUDGET, FiniteAlgebra, Signature, app, var
from .distlat import DReductSpec, d_reduct
from .errors import CapExceeded, LatcopError, ParseError

UNVERIFIED_TABLE_ROWS = (
    "quantifier-lattice varieties D_pq (generators not constructed)",
    "non-singly-generated Heyting varieties (generators not constructed)",
)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    constructor: str
    params: tuple[int, ...]
    algebra: FiniteAlgebra
    spec: DReductSpec
    carriers: tuple[frozenset[int], ...] | None  # documented filters, None = discover
    expected: tuple[bool, bool] | None  # (E, S) or None for "unverified"
    notes: str = ""


def _check_tables(constructor: str, size: int, *counts: int) -> None:
    """Raise CapExceeded before any table is built when a ``size``-element algebra
    with counts[k] symbols of arity k needs more than TABLE_ENTRY_BUDGET entries."""
    required = sum(c * size**k for k, c in enumerate(counts))
    if required > TABLE_ENTRY_BUDGET:
        raise CapExceeded(
            f"{constructor} tables need at least {required} entries, budget is {TABLE_ENTRY_BUDGET}",
            required=required, stage="catalog tables", budget=TABLE_ENTRY_BUDGET,
        )


def _binary(size: int, f) -> tuple[int, ...]:
    return tuple(f(x, y) for x in range(size) for y in range(size))


def _unary(size: int, f) -> tuple[int, ...]:
    return tuple(f(x) for x in range(size))


_LIT = DReductSpec.literal()

_LATTICE_SIG = Signature((("meet", 2), ("join", 2), ("zero", 0), ("one", 0)))
_SIG_DM = Signature((("meet", 2), ("join", 2), ("neg", 1), ("zero", 0), ("one", 0)))
_SIG_HEYTING = Signature(
    (("meet", 2), ("join", 2), ("imp", 2), ("zero", 0), ("one", 0))
)
_SIG_PSEUDO = Signature(
    (("meet", 2), ("join", 2), ("star", 1), ("zero", 0), ("one", 0))
)
_SIG_MV = Signature((("oplus", 2), ("neg", 1), ("zero", 0)))

# join is neg(neg x + y) + y; the meet is the De Morgan dual of the
# analogous term in neg x, neg y, hence the outer negation
_MV_SPEC = DReductSpec(
    meet=app(
        "neg",
        app("oplus", app("neg", app("oplus", var(0), app("neg", var(1)))), app("neg", var(1))),
    ),
    join=app("oplus", app("neg", app("oplus", app("neg", var(0)), var(1))), var(1)),
    bot=app("zero"),
    top=app("neg", app("zero")),
)

# the four-element De Morgan diamond 0 < a, b < 1 as two bits, 0, a = 1,
# b = 2, 1 = 3, so meet and join are bitwise; negation fixes a and b
_DM_NEG = (3, 1, 2, 0)


def _bool2() -> CatalogEntry:
    alg = FiniteAlgebra(
        "bool2",
        2,
        _LATTICE_SIG,
        (_binary(2, min), _binary(2, max), (0,), (1,)),
        ("0", "1"),
    )
    return CatalogEntry(
        "bool2", "bool2", (), alg, _LIT, (frozenset({1}),), (True, True),
        "the two-element bounded lattice",
    )


def _demorgan4() -> CatalogEntry:
    alg = FiniteAlgebra(
        "demorgan4",
        4,
        _SIG_DM,
        (
            _binary(4, operator.and_),
            _binary(4, operator.or_),
            _DM_NEG,
            (0,),
            (3,),
        ),
        ("0", "a", "b", "1"),
    )
    return CatalogEntry(
        "demorgan4", "demorgan4", (), alg, _LIT, (frozenset({1, 3}),), (True, True),
        "four-element De Morgan algebra with two negation fixpoints",
    )


def _kleene3() -> CatalogEntry:
    alg = FiniteAlgebra(
        "kleene3",
        3,
        _SIG_DM,
        (_binary(3, min), _binary(3, max), (2, 1, 0), (0,), (2,)),
        ("0", "a", "1"),
    )
    return CatalogEntry(
        "kleene3", "kleene3", (), alg, _LIT,
        (frozenset({1, 2}), frozenset({2})), (False, True),
        "three-element Kleene chain",
    )


def _heyting_chain(n: int) -> CatalogEntry:
    if n < 2:
        raise LatcopError("heyting_chain needs n >= 2")
    _check_tables("heyting_chain", n, 2, 0, 3)

    def imp(x: int, y: int) -> int:
        return n - 1 if x <= y else y

    if n == 3:
        names: tuple[str, ...] = ("0", "d", "1")
    else:
        names = ("0",) + tuple(f"c{i}" for i in range(1, n - 1)) + ("1",)
    alg = FiniteAlgebra(
        f"heyting_chain{n}",
        n,
        _SIG_HEYTING,
        (_binary(n, min), _binary(n, max), _binary(n, imp), (0,), (n - 1,)),
        names,
    )
    expected = (True, True) if n == 2 else (True, False)
    return CatalogEntry(
        f"heyting_chain({n})", "heyting_chain", (n,), alg, _LIT,
        (frozenset({n - 1}),), expected,
        f"{n}-element Heyting chain",
    )


def _pseudo_b(n: int) -> CatalogEntry:
    if n < 0:
        raise LatcopError("pseudo_b needs n >= 0")
    # past 2**bit_length the budget is exceeded already, so 2**n is not formed
    _check_tables("pseudo_b", 2 ** min(n, TABLE_ENTRY_BUDGET.bit_length()) + 1, 2, 1, 2)
    size = 2**n + 1
    top = 2**n  # the new top adjoined above the Boolean lattice
    full = 2**n - 1

    def meet(x: int, y: int) -> int:
        if x == top:
            return y
        if y == top:
            return x
        return x & y

    def join(x: int, y: int) -> int:
        if x == top or y == top:
            return top
        return x | y

    def star(x: int) -> int:
        # largest y with x & y = bottom
        if x == 0:
            return top
        if x == top:
            return 0
        return full ^ x

    def name(x: int) -> str:
        if x == top:
            return "T"
        if x == 0:
            return "0"
        return "{" + ",".join(str(i + 1) for i in range(n) if x >> i & 1) + "}"

    alg = FiniteAlgebra(
        f"pseudo_b{n}",
        size,
        _SIG_PSEUDO,
        (_binary(size, meet), _binary(size, join), _unary(size, star), (0,), (top,)),
        tuple(name(x) for x in range(size)),
    )
    expected = (True, True) if n <= 1 else (True, False)
    return CatalogEntry(
        f"pseudo_b({n})", "pseudo_b", (n,), alg, _LIT, None, expected,
        f"Boolean lattice with {n} atoms plus a new top, with pseudocomplement",
    )


def _mv_chain(k: int) -> CatalogEntry:
    if k < 1:
        raise LatcopError("mv_chain needs k >= 1")
    _check_tables("mv_chain", k + 1, 1, 1, 1)
    size = k + 1

    def name(x: int) -> str:
        if x == 0:
            return "0"
        if x == k:
            return "1"
        return f"{x}/{k}"

    alg = FiniteAlgebra(
        f"mv_chain{k}",
        size,
        _SIG_MV,
        (
            _binary(size, lambda x, y: min(k, x + y)),
            _unary(size, lambda x: k - x),
            (0,),
        ),
        tuple(name(x) for x in range(size)),
    )
    if k == 1:
        expected = (True, True)
    else:
        divisors = [p for p in range(2, k + 1) if k % p == 0 and _is_prime(p)]
        prime_power = len(divisors) == 1
        expected = (False, True) if prime_power else (False, False)
    return CatalogEntry(
        f"mv_chain({k})", "mv_chain", (k,), alg, _MV_SPEC, None, expected,
        f"{k + 1}-element MV chain",
    )


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def _times_chain(
    constructor: str, n: int, bits: tuple[str, ...], neg: tuple[int, ...] | None, prefix: str
) -> FiniteAlgebra:
    """The bit lattice labelled ``bits`` (meet and join bitwise, negation
    ``neg`` or none) times the n-chain, (b, k) coded as b * n + k.  The
    unary ``prefix``i sends an element to the bottom when its chain
    coordinate is below n - i, else to the top; without a negation,
    ``prefix``bar i does the opposite.  Elements are named k over the
    one-element bit lattice, else (b,k); a key ending in a digit takes
    "_" before n in the algebra's name."""
    if n < 2:
        raise LatcopError(f"{constructor} needs n >= 2")
    size = len(bits) * n
    _check_tables(constructor, size, 2, n if neg else 2 * (n - 1), 2)
    bot, top = 0, size - 1

    def on_pairs(f, g):
        return lambda x, y: f(x // n, y // n) * n + g(x % n, y % n)

    symbols = [("meet", 2), ("join", 2)]
    tables = [_binary(size, on_pairs(operator.and_, min)), _binary(size, on_pairs(operator.or_, max))]
    if neg:
        symbols.append(("neg", 1))
        tables.append(_unary(size, lambda x: neg[x // n] * n + n - 1 - x % n))
    symbols += [("zero", 0), ("one", 0)]
    tables += [(bot,), (top,)]
    for bar, below, above in (("", bot, top),) if neg else (("", bot, top), ("bar", top, bot)):
        for i in range(1, n):
            symbols.append((f"{prefix}{bar}{i}", 1))
            tables.append(tuple(below if x % n < n - i else above for x in range(size)))
    if len(bits) == 1:
        names = tuple(str(k) for k in range(n))
    else:
        names = tuple(f"({b},{k})" for b in bits for k in range(n))
    sep = "_" if constructor[-1].isdigit() else ""
    return FiniteAlgebra(f"{constructor}{sep}{n}", size, Signature(tuple(symbols)), tuple(tables), names)


def _moisil_L(n: int) -> CatalogEntry:
    alg = _times_chain("moisil_L", n, ("0",), None, "d")
    expected = (True, True) if n <= 2 else (False, True)
    notes = f"{n}-valued Lukasiewicz-Moisil chain"
    if n == 2:
        notes += (
            "; the published classification table lists all n >= 2 as E-failing, "
            "but the single-carrier computation for n = 2 gives E; we report the "
            "computed verdict"
        )
    return CatalogEntry(
        f"moisil_L({n})", "moisil_L", (n,), alg, _LIT,
        tuple(frozenset(range(j, n)) for j in range(1, n)), expected, notes,
    )


def _moisil_M(n: int) -> CatalogEntry:
    alg = _times_chain("moisil_M", n, ("0",), (0,), "d")
    expected = (True, True) if n <= 2 else (False, True)
    return CatalogEntry(
        f"moisil_M({n})", "moisil_M", (n,), alg, _LIT,
        tuple(frozenset(range(j, n)) for j in range(1, n)), expected,
        f"{n}-valued Moisil chain",
    )


def _pre_moisil_L0(n: int) -> CatalogEntry:
    """Universe {0,1} x {0..n-1} with the product order; e_i collapses to the
    bounds according to the second coordinate."""
    alg = _times_chain("pre_moisil_L0", n, ("0", "1"), None, "e")
    carrier = frozenset(range(n, 2 * n))  # w(x, y) = x
    return CatalogEntry(
        f"pre_moisil_L0({n})", "pre_moisil_L0", (n,), alg, _LIT, (carrier,),
        (True, True), f"{n}-valued pre-Lukasiewicz-Moisil witness algebra",
    )


def _pre_moisil_M0(n: int) -> CatalogEntry:
    """Universe {0,a,b,1} x {0..n-1}: De Morgan diamond times a chain."""
    alg = _times_chain("pre_moisil_M0", n, ("0", "a", "b", "1"), _DM_NEG, "f")
    # w(x, y) = 1 iff x in {a, 1}
    carrier = frozenset(j * n + k for j in (1, 3) for k in range(n))
    return CatalogEntry(
        f"pre_moisil_M0({n})", "pre_moisil_M0", (n,), alg, _LIT, (carrier,),
        (True, True), f"{n}-valued pre-Moisil witness algebra",
    )


_CONSTRUCTORS = {
    "bool2": (_bool2, 0),
    "demorgan4": (_demorgan4, 0),
    "kleene3": (_kleene3, 0),
    "heyting_chain": (_heyting_chain, 1),
    "pseudo_b": (_pseudo_b, 1),
    "mv_chain": (_mv_chain, 1),
    "moisil_L": (_moisil_L, 1),
    "moisil_M": (_moisil_M, 1),
    "pre_moisil_L0": (_pre_moisil_L0, 1),
    "pre_moisil_M0": (_pre_moisil_M0, 1),
}

CONSTRUCTOR_IDS = tuple(sorted(_CONSTRUCTORS))


@lru_cache(maxsize=None)
def make(constructor: str, *params: int) -> CatalogEntry:
    """Build a validated catalog entry.  The reduct is checked on
    construction and kept with the entry's algebra, so a later classify or
    coproduct on it reads the kept reduct instead of validating again."""
    if constructor not in _CONSTRUCTORS:
        raise LatcopError(
            f"unknown catalog constructor {constructor!r}; "
            f"known: {', '.join(CONSTRUCTOR_IDS)}"
        )
    fn, nparams = _CONSTRUCTORS[constructor]
    if len(params) != nparams:
        raise LatcopError(
            f"constructor {constructor!r} takes {nparams} parameter(s), got {len(params)}"
        )
    entry = fn(*params)
    d_reduct(entry.algebra, entry.spec)  # validates the lattice axioms and keeps the reduct
    return entry


_ID_RE = re.compile(r"^([a-zA-Z0-9_]+)(?:\(\s*(\d+)\s*\)|:\s*(\d+))?$")


def make_id(identifier: str) -> CatalogEntry:
    """Parse a textual id such as ``kleene3``, ``mv_chain(3)`` or ``mv_chain:3``."""
    m = _ID_RE.match(identifier.strip())
    if not m:
        raise LatcopError(f"cannot parse catalog id {identifier!r}")
    name, param = m.group(1), m.group(2) or m.group(3)
    return make(name) if param is None else make(name, decimal(param, "catalog id parameter"))


def decimal(token: str, what: str = "number", line: int | None = None) -> int:
    """A decimal token of outside text as an int; past Python's digit limit, bad input at ``line``."""
    try:
        return int(token)
    except ValueError:
        message = f"{what} of {len(token)} digits is too long"
        raise (LatcopError(message) if line is None else ParseError(message, line)) from None


def table1_suite() -> list[tuple[CatalogEntry, tuple[bool, bool]]]:
    """The classification-table reproduction suite: entries paired with the
    expected (E, S) verdicts.

    Rows in UNVERIFIED_TABLE_ROWS are not represented here because their
    generating algebras are not constructed.
    """
    keys = [
        ("demorgan4", ()),
        ("kleene3", ()),
        ("pseudo_b", (0,)),
        ("pseudo_b", (1,)),
        ("pseudo_b", (2,)),
        ("pseudo_b", (3,)),
        ("heyting_chain", (3,)),
        ("heyting_chain", (4,)),
        ("mv_chain", (1,)),
        ("mv_chain", (2,)),
        ("mv_chain", (3,)),
        ("mv_chain", (4,)),
        ("mv_chain", (6,)),
        ("moisil_L", (3,)),
        ("moisil_M", (3,)),
        ("pre_moisil_L0", (2,)),
        ("pre_moisil_L0", (3,)),
        ("pre_moisil_M0", (2,)),
    ]
    out = []
    for name, params in keys:
        entry = make(name, *params)
        assert entry.expected is not None
        out.append((entry, entry.expected))
    return out

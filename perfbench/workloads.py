"""The benchmark's workloads: latcop requests with pinned expected answers.

Every request names the public entry point it calls (``flowchart_classify``,
``coproduct`` or ``free_algebra``), its inputs as catalog ids, the answer
expected of it and where that answer comes from.  ``pin.py`` recomputes the
expected answers along independent code paths; this file only stores them,
so a change to ``src/`` cannot move the target it is checked against.

Answers are JSON-shaped: ``{"E": bool, "S": bool}`` for a classification,
``{"size": int}`` for a coproduct or a free algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

SRC_PAPER = "paper Table 1 (E, S), as catalog.table1_suite() pins it"
SRC_CATALOG = "catalog expected verdict of the family (CatalogEntry.expected)"
SRC_PRIESTLEY = (
    "E and S hold for De Morgan algebras, so the lattice reduct of the coproduct is "
    "the lattice coproduct: upsets of the product of Priestley duals (pin.py)"
)
SRC_SUBPOWER = (
    "subalgebra of M^(Hom(B1,M) x ... x Hom(Bk,M)) generated by the images of the "
    "Bi, built by a closure loop independent of latcop.duality (pin.py)"
)
SRC_F2_KLEENE = "literature: the free Kleene algebra on 2 generators has 84 elements"
SRC_F2_DEMORGAN = "literature: the free De Morgan algebra on 2 generators has 168 elements"
SRC_F1F1 = "F(1) + F(1) is isomorphic to F(2): checked once with algebra.isomorphic (pin.py)"


@dataclass(frozen=True)
class Request:
    """One call into latcop.

    ``kind`` is ``classify``, ``coproduct`` or ``free``.  For ``classify``
    ``family`` holds one catalog id; for ``coproduct`` it holds the operands
    and ``generators`` the algebras generating the quasivariety; for
    ``free`` ``generators`` holds the algebras and ``rank`` the number of
    free generators.  A family entry ``F1:<id>`` stands for the free algebra
    on one generator over ``<id>``.
    """

    rid: str
    kind: str
    expected: dict
    source: str
    family: tuple[str, ...] = ()
    generators: tuple[str, ...] = ()
    rank: int = 0


def _classify(cid: str, e: bool, s: bool, source: str) -> Request:
    return Request(f"classify {cid}", "classify", {"E": e, "S": s}, source, family=(cid,))


TABLE1 = (
    _classify("demorgan4", True, True, SRC_PAPER),
    _classify("kleene3", False, True, SRC_PAPER),
    _classify("pseudo_b(0)", True, True, SRC_PAPER),
    _classify("pseudo_b(1)", True, True, SRC_PAPER),
    _classify("pseudo_b(2)", True, False, SRC_PAPER),
    _classify("pseudo_b(3)", True, False, SRC_PAPER),
    _classify("heyting_chain(3)", True, False, SRC_PAPER),
    _classify("heyting_chain(4)", True, False, SRC_PAPER),
    _classify("mv_chain(1)", True, True, SRC_PAPER),
    _classify("mv_chain(2)", False, True, SRC_PAPER),
    _classify("mv_chain(3)", False, True, SRC_PAPER),
    _classify("mv_chain(4)", False, True, SRC_PAPER),
    _classify("mv_chain(6)", False, False, SRC_PAPER),
    _classify("moisil_L(3)", False, True, SRC_PAPER),
    _classify("moisil_M(3)", False, True, SRC_PAPER),
    _classify("pre_moisil_L0(2)", True, True, SRC_PAPER),
    _classify("pre_moisil_L0(3)", True, True, SRC_PAPER),
    _classify("pre_moisil_M0(2)", True, True, SRC_PAPER),
)

# pseudo_b(4) stays in although it returns "unknown" under the default
# subalgebra cap: it is recorded as unknown, not dropped.
LADDER = (
    _classify("mv_chain(7)", False, True, SRC_CATALOG),
    _classify("mv_chain(8)", False, True, SRC_CATALOG),
    _classify("moisil_L(7)", False, True, SRC_CATALOG),
    _classify("moisil_L(8)", False, True, SRC_CATALOG),
    _classify("heyting_chain(8)", True, False, SRC_CATALOG),
    _classify("pre_moisil_L0(4)", True, True, SRC_CATALOG),
    _classify("pre_moisil_M0(3)", True, True, SRC_CATALOG),
    _classify("pseudo_b(4)", True, False, SRC_CATALOG),
)


def _coproduct(family: tuple[str, ...], generators: tuple[str, ...], size: int, source: str) -> Request:
    rid = "coproduct " + " + ".join(family)
    return Request(rid, "coproduct", {"size": size}, source, family=family, generators=generators)


def _free(gen: str, rank: int, size: int, source: str) -> Request:
    return Request(f"free {rank} {gen}", "free", {"size": size}, source, generators=(gen,), rank=rank)


CONSTRUCT = (
    _coproduct(("demorgan4",) * 2, ("demorgan4",), 16, SRC_PRIESTLEY),
    _coproduct(("demorgan4",) * 3, ("demorgan4",), 256, SRC_PRIESTLEY),
    _coproduct(("heyting_chain(3)",) * 3, ("heyting_chain(3)",), 129, SRC_SUBPOWER),
    _coproduct(("demorgan4", "kleene3", "kleene3"), ("demorgan4", "kleene3"), 36, SRC_PRIESTLEY),
    _coproduct(("demorgan4", "demorgan4", "kleene3"), ("demorgan4", "kleene3"), 81, SRC_PRIESTLEY),
    _free("kleene3", 2, 84, SRC_F2_KLEENE),
    _free("demorgan4", 2, 168, SRC_F2_DEMORGAN),
    _free("heyting_chain(3)", 2, 162, SRC_F1F1),
    _coproduct(("F1:kleene3",) * 2, ("kleene3",), 84, SRC_F1F1),
    _coproduct(("F1:demorgan4",) * 2, ("demorgan4",), 168, SRC_F1F1),
    _coproduct(("F1:heyting_chain(3)",) * 2, ("heyting_chain(3)",), 162, SRC_F1F1),
)

WORKLOADS = {"table1": TABLE1, "ladder": LADDER, "construct": CONSTRUCT}

# Which layer metric is predicted to move which end-to-end metric, per
# workload.  "none" marks the workload that bypasses the layer: there the
# prediction is no change.
PREDICTIONS = {
    "table1": {
        "piggyback.maximal_subuniverses_in.self_s": ["wall_s", "max_request_s", "peak_rss_mb"],
        "distlat.d_reduct.s": ["setup_s", "wall_s"],
        "catalog.make.s": ["setup_s", "wall_s"],
        "algebra.direct_product.s": "none (small share)",
        "algebra.subuniverse_closure.s": "none (small share)",
    },
    "ladder": {
        "piggyback.sep_condition.s": ["wall_s"],
        "piggyback.minimal_omega_certified.self_s": ["wall_s"],
        "algebra.direct_product.s": ["wall_s", "max_request_s"],
        "algebra.subuniverse_closure.s": ["wall_s", "max_request_s"],
        "algebra.subuniverses.s": ["wall_s"],
        "algebra.isomorphic.s": ["wall_s"],
        "algebra.in_isp.s": ["wall_s"],
        "algebra.hom_enumerate.s": ["wall_s"],
        "classify.flowchart_classify.self_s": ["wall_s"],
        "classify.simplify_generators.s": ["wall_s"],
        "classify.find_single_generator.s": ["wall_s"],
        "algebra.free_algebra.s": "none (not called)",
        "duality.e_functor.s": "none (not called)",
    },
    "construct": {
        "duality.e_functor.s": ["wall_s", "max_request_s"],
        "algebra.free_algebra.s": ["wall_s", "max_request_s"],
        "algebra.hom_enumerate.s": ["wall_s"],
        "duality.coproduct.universal_hom_s": ["wall_s"],
        "piggyback.maximal_subuniverses_in.self_s": "none (relation search is about 0.01 s)",
    },
}

# Inputs that do not finish under today's budgets.  None of them is run; a
# later change adds each one once it terminates.
KNOWN_UNBUDGETED = (
    {
        "request": "classify pseudo_b(4) with size_cap=20",
        "observed": "more than 120 s: maximal_subuniverses_in has no budget",
    },
    {
        "request": "coproduct demorgan4 x 4 (CLI: latcop coproduct demorgan4 x4)",
        "observed": "65,536 elements passes the 5,000-point cap; the table build ran for "
        "more than 4 min before it was stopped",
    },
    {
        "request": "coproduct heyting_chain(3) x 4",
        "observed": "ran for more than 290 s before it was stopped",
    },
    {
        "request": "free_algebra(kleene3, 3)",
        "observed": "ran for more than 290 s before it was stopped",
    },
    {
        "request": "classify mv_chain(9), classify mv_chain(10)",
        "observed": "8.5 s and 13 s: too long to repeat on every run",
    },
)

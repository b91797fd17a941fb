"""The E/S classification flowchart.

Route: simplify the generating set to relatively subdirectly irreducible
subalgebras, look for a single generator, take a minimum-cardinality
separating carrier set, then read the verdicts off whether each
|R(w1, w2)| <= 1, decided at the root of the pair's relation search
(:func:`~latcop.piggyback._relation_search`) without listing R.  The
coproduct-preservation verdict is the conjunction of E and S.  Every step
reads the hom-sets the algebras keep (:func:`~latcop.algebra.hom_set`).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import Sequence

from .algebra import (
    FiniteAlgebra,
    _maps,
    _separated,
    direct_product,
    embeds,
    hom_set,
    in_isp,
    induced_subalgebra,
    subuniverses,
)
from .distlat import DReductSpec, PrimeFilter
from .errors import CapExceeded, InternalError, LatcopError
from .piggyback import AlterEgo, MinimalityCertificate, SortedRelation

SUBALGEBRA_SIZE_CAP = 12


def _rsi(s: FiniteAlgebra, ambient: Sequence[FiniteAlgebra]) -> bool:
    """Whether ``s``, a member of ISP(ambient), is subdirectly irreducible
    relative to it (RSI).

    Theorem (Gorbunov, *Algebraic Theory of Quasivarieties*, 1998): a
    finite algebra of the class is RSI exactly when it has two or more
    elements and the kernels of its non-injective homomorphisms into
    ``ambient`` meet above the diagonal (a one-element algebra's meet is
    the diagonal)."""
    into = [h for m in ambient for h in hom_set(s, m)]
    return not _separated(s, (h for h in into if not h.is_injective))


def simplify_generators(
    generators: Sequence[FiniteAlgebra],
    size_cap: int = SUBALGEBRA_SIZE_CAP,
) -> list[FiniteAlgebra]:
    """Replace the generators by relatively subdirectly irreducible (RSI)
    subalgebras, dropping any that embeds in another.

    Theorem (Clark & Davey, *Natural Dualities for the Working Algebraist*,
    1998, ch. 1): a finite RSI algebra lies in ISP(K) exactly when it embeds
    in a member of K.  So the result, pairwise non-embeddable, generates the
    same quasivariety (asserted via membership both ways): per isomorphism
    type of the RSI subalgebras embedding in no larger one, the first in
    (size, generator index, element list) order, in that order.

    Frontier theorem: a subalgebra embeds in every algebra holding it, so
    nothing strictly inside an RSI subuniverse is kept.  The walk tests each
    generator's subuniverses largest first, skipping those inside an RSI one
    found, so an RSI generator is one test and is kept as given; the finds
    are pruned largest first, ties by (generator index, element list),
    against the kept ones.  CapExceeded is raised on a generator of more
    than ``size_cap`` elements before any test.
    """
    ambient = [m for m in generators if m.size > 1]
    if not generators:
        raise LatcopError("empty generating set")
    if not ambient:
        return []
    for m in ambient:
        if m.size > size_cap:
            raise CapExceeded(
                f"subalgebra enumeration needs generator size <= {size_cap}, got {m.size}",
                required=m.size, stage="subalgebra enumeration", budget=size_cap,
            )
    found = []  # (size, generator index, elements, subalgebra)
    for mi, m in enumerate(ambient):
        if _rsi(m, ambient):
            found.append((m.size, mi, frozenset(range(m.size)), m))
            continue
        for elems in sorted(subuniverses(m), key=len, reverse=True):
            if 1 < len(elems) < m.size and not any(t[1] == mi and elems <= t[2] for t in found):
                sub, _ = induced_subalgebra(m, elems)
                if _rsi(sub, ambient):
                    found.append((sub.size, mi, elems, sub))
    kept: list = []
    for t in sorted(found, key=lambda t: (-t[0], t[1], sorted(t[2]))):
        if all(embeds(t[3], k[3]) is None for k in kept):
            kept.append(t)
    simplified = [t[3] for t in sorted(kept, key=lambda t: (t[0], t[1], sorted(t[2])))]
    for m in ambient:
        if not in_isp(m, simplified):
            raise InternalError("simplified set lost a generator")
    for s in simplified:
        if not in_isp(s, ambient):
            raise InternalError("simplified set escapes the class")
    return simplified


def _single_generator(simplified: Sequence[FiniteAlgebra]) -> FiniteAlgebra | None:
    """A single generator of ISP(simplified), or None if there is none;
    ``simplified`` is an output of ``simplify_generators``.

    Theorem: let S be finitely many pairwise non-embeddable finite RSI
    algebras.  With one member, S generates ISP(S).  Otherwise no subalgebra
    of a member generates it, as the others would embed there, and ISP(S)
    has a single finite generator exactly when each member embeds in the
    product of S.  A member m embeds there exactly when it has a
    homomorphism into every other member, as its own coordinate is the
    identity; so the product is built only when that holds.  Raises
    CapExceeded when the product is out of reach.
    """
    if len(simplified) <= 1:
        return simplified[0] if simplified else None
    if any(next(_maps(m, s), None) is None for m, s in itertools.permutations(simplified, 2)):
        return None
    return direct_product(simplified)


def find_single_generator(generators: Sequence[FiniteAlgebra]) -> FiniteAlgebra | None:
    """A single algebra generating the same quasivariety, if one exists.

    Theorem: ISP(K) has a single finite generator exactly when
    ``simplify_generators(K)`` has one member or each of its members embeds
    in their product (see ``_single_generator``).  Raises CapExceeded
    (meaning "unknown", not "no") when the search space is out of reach.
    """
    if not generators:
        return None
    return _single_generator(simplify_generators(generators))


@dataclass
class ClassificationReport:
    """Output of the flowchart with all witnesses.  ``listing`` holds, per
    carrier pair of the flowchart's ``ego``, its relations or the
    ``CapExceeded`` that stopped their listing; it is made when first read.
    ``omega`` and ``minimality`` are read off ``ego``: () and None without
    one.  ``stopped`` is the ``CapExceeded`` that left the verdicts unknown."""

    input_generators: list[FiniteAlgebra]
    simplified: list[FiniteAlgebra] = field(default_factory=list)
    single_generator: FiniteAlgebra | None = None
    verdict_E: bool | None = None
    verdict_S: bool | None = None
    route: list[tuple[str, str]] = field(default_factory=list)
    stopped: CapExceeded | None = None
    ego: AlterEgo | None = field(default=None, repr=False, compare=False)

    @property
    def unknown(self) -> str | None:
        """Why the verdicts are unknown, as the reports print it, or None."""
        return None if self.stopped is None else f"{self.stopped}; {self.stopped.budget_note()}"

    @property
    def omega(self) -> tuple[PrimeFilter, ...]:
        return () if self.ego is None else self.ego.carriers

    @property
    def minimality(self) -> MinimalityCertificate | None:
        return None if self.ego is None else self.ego.minimality

    @property
    def preserves_coproducts(self) -> bool | None:
        if self.verdict_E is None or self.verdict_S is None:
            return None
        return self.verdict_E and self.verdict_S

    @functools.cached_property
    def listing(self) -> dict[tuple[int, int], tuple[SortedRelation, ...] | CapExceeded]:
        out: dict = {}
        for ij in self.ego.pairs() if self.ego is not None else ():
            try:
                out[ij] = self.ego.relations_for(*ij)
            except CapExceeded as exc:
                out[ij] = exc
        return out

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        def yesno(v):
            return None if v is None else ("yes" if v else "no")

        doc: dict = {
            "schema": 1,
            "input_generators": [
                {"name": m.name, "size": m.size} for m in self.input_generators
            ],
            "simplified": [
                {"name": m.name, "size": m.size} for m in self.simplified
            ],
            "single_generator": None
            if self.single_generator is None
            else {"name": self.single_generator.name, "size": self.single_generator.size},
            "omega": [w.label() for w in self.omega],
            "route": [{"question": q, "answer": a} for q, a in self.route],
            "E": yesno(self.verdict_E),
            "S": yesno(self.verdict_S),
            "preserves_coproducts": yesno(self.preserves_coproducts),
            "unknown": self.unknown,
        }
        if self.stopped is not None:
            doc["stopped"] = self.stopped.budget_doc()
        if self.minimality is not None:
            doc["omega_minimality"] = {
                "size": self.minimality.size,
                "alternatives_of_same_size": self.minimality.alternatives,
                "smaller_sizes_failed": list(range(1, self.minimality.size)),
            }
        if self.ego is not None:
            rels = []
            for (i, j), listed in self.listing.items():
                stopped = isinstance(listed, CapExceeded)
                entry = {
                    "omega1": self.omega[i].label(),
                    "omega2": self.omega[j].label(),
                    "count": None if stopped else len(listed),
                    "relations": None if stopped else [[list(p) for p in r.pairs] for r in listed],
                }
                if stopped:
                    entry["stopped"] = listed.budget_doc()
                rels.append(entry)
            doc["relations"] = rels
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        gen_names = ", ".join(f"{m.name}({m.size})" for m in self.input_generators)
        lines.append(f"classification of ISP({gen_names})")
        # an unknown run may have stopped before simplification finished
        if self.simplified or self.unknown is None:
            lines.append(
                "simplified generators: "
                + (", ".join(m.name for m in self.simplified) or "(none: trivial class)")
            )
        if self.unknown is not None:
            lines.append(f"verdict: unknown ({self.unknown})")
            return "\n".join(lines) + "\n"
        if self.single_generator is not None:
            lines.append(f"single generator: {self.single_generator.name}")
        if self.omega:
            alt = ""
            if self.minimality is not None:
                alt = (
                    f"  (minimal size {self.minimality.size}, "
                    f"{self.minimality.alternatives} alternative choice(s))"
                )
            lines.append(
                "carriers: " + ", ".join(w.label() for w in self.omega) + alt
            )
        if self.ego is not None:
            lines.append("relations:")
            for (i, j), listed in self.listing.items():
                stopped = isinstance(listed, CapExceeded)
                count = f"listing stopped ({listed.budget_note()})" if stopped else len(listed)
                lines.append(
                    f"  R[{self.omega[i].label()},{self.omega[j].label()}]: {count}"
                )
                for r in () if stopped else listed:
                    pretty = ",".join(
                        f"({self.ego.sorts[r.sort1].element_name(a)},"
                        f"{self.ego.sorts[r.sort2].element_name(b)})"
                        for a, b in r.pairs
                    )
                    lines.append(f"    {{{pretty}}}")
        lines.append("route:")
        for k, (q, a) in enumerate(self.route, 1):
            lines.append(f"  ({k}) {q} {a}")
        pc = self.preserves_coproducts
        lines.append(f"preserves coproducts: {'yes' if pc else 'no'}")
        e = "yes" if self.verdict_E else "no"
        s = "yes" if self.verdict_S else "no"
        lines.append(f"E: {e}, S: {s}")
        return "\n".join(lines) + "\n"


def flowchart_classify(
    generators: Sequence[FiniteAlgebra],
    spec: DReductSpec,
    size_cap: int = SUBALGEBRA_SIZE_CAP,
) -> ClassificationReport:
    """Run the flowchart and fill a report with all witnesses; the verdicts
    read only the root class of each carrier pair's relation search (see
    the module docstring)."""
    report = ClassificationReport(input_generators=list(generators))
    try:
        report.simplified = simplified = simplify_generators(generators, size_cap)
        m0 = _single_generator(simplified)
        if not simplified:
            # only trivial algebras: coproducts are trivially preserved
            report.route.append(("all generators trivial?", "yes"))
            report.verdict_E = True
            report.verdict_S = True
            return report
        report.single_generator = m0
        report.route.append(
            ("is the class generated by a single algebra?", "yes" if m0 else "no")
        )
        ego = AlterEgo([m0] if m0 is not None else simplified, spec)
        one_pair = m0 is not None and len(ego.carriers) == 1
        # R(w, w) holds the diagonal, so for one carrier this is |R(w, w)| = 1
        small = all(ego.root_class(i, j) <= 1 for i, j in ego.pairs())
    except CapExceeded as exc:
        report.stopped = exc
        return report
    report.ego = ego
    if m0 is not None:
        report.route.append(
            ("does a single carrier map satisfy separation?", "yes" if one_pair else "no")
        )
    if one_pair:
        report.route.append(("is |R(w,w)| = 1?", "yes" if small else "no"))
    else:
        report.route.append(
            ("is |R(w1,w2)| <= 1 for all carrier pairs?", "yes" if small else "no")
        )
    report.verdict_E = one_pair
    report.verdict_S = small
    return report

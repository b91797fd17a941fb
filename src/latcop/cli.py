"""Command-line frontend.

Inputs are either catalog ids (``kleene3``, ``mv_chain:3``, ``pseudo_b(2)``)
or paths to ``.alg`` files.  Exit codes: 0 success, 1 analysis unknown (a
size cap was hit), 2 input error, 3 internal error (a failed self-check,
an unexpected exception, or a ``table1`` row that does not match).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .algebra import FiniteAlgebra, free_algebra
from .algfile import export_entry, parse_algebra_file
from .catalog import CONSTRUCTOR_IDS, decimal, make_id
from .classify import flowchart_classify
from .distlat import DReductSpec, d_reduct, priestley_dual
from .duality import coproduct, reveng_priestley
from .errors import CapExceeded, InternalError, LatcopError, ParseError
from .piggyback import build_alter_ego, carrier_from_filter, carriers_of

EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

CAP_ENV = "LATCOP_CAP"


class _Inputs:
    """Algebras with their reduct specs."""

    def __init__(self):
        self.items: list[tuple[FiniteAlgebra, DReductSpec]] = []

    @property
    def algebras(self) -> list[FiniteAlgebra]:
        return [a for a, _ in self.items]

    @property
    def spec(self) -> DReductSpec:
        specs = {s for _, s in self.items}
        if len(specs) != 1:
            raise LatcopError("all input algebras must share one reduct specification")
        return next(iter(specs))


def _load(source: str) -> _Inputs:
    out = _Inputs()
    path = Path(source)
    if path.suffix == ".alg" or path.exists():
        parsed = parse_algebra_file(path.read_text(encoding="utf-8"))
        for pa in parsed.algebras:
            spec = pa.reduct
            if spec is None:
                names = pa.algebra.signature.names
                if not {"meet", "join", "zero", "one"} <= set(names):
                    raise LatcopError(
                        f"algebra {pa.algebra.name!r} has no reduct line and no "
                        "literal meet/join/zero/one symbols"
                    )
                spec = DReductSpec.literal()
            d_reduct(pa.algebra, spec)  # validates early; the reduct is kept, so later reads reuse it
            for elements in pa.carriers:
                carrier_from_filter(pa.algebra, spec, elements)
            out.items.append((pa.algebra, spec))
        return out
    entry = make_id(source)
    out.items.append((entry.algebra, entry.spec))
    return out


def _load_many(sources: list[str]) -> _Inputs:
    out = _Inputs()
    for s in sources:
        out.items.extend(_load(s).items)
    return out


def _resolve_omega(arg: str | None, inputs: _Inputs):
    """--omega: 'auto' for the minimal search, else semicolon-separated
    filters, each a comma list of labels/indices or a carrier label as
    printed (``{a,1}``), optionally 'sort:...'."""
    if arg is None or arg == "auto":
        return None
    spec = inputs.spec
    algebras = inputs.algebras
    carriers = []
    for chunk in arg.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sort = algebras[0]
        if ":" in chunk:
            sort_name, chunk = chunk.split(":", 1)
            matches = [a for a in algebras if a.name == sort_name]
            if not matches:
                raise LatcopError(f"--omega names unknown sort {sort_name!r}")
            sort = matches[0]
        elements = set()
        for tok in chunk.split(","):
            tok = tok.strip()
            # labels take precedence over raw indices (labels may be digits)
            if sort.element_names and tok in sort.element_names:
                elements.add(sort.element_names.index(tok))
            elif tok.isdecimal():
                elements.add(decimal(tok))
            else:  # a printed label, whose element names may hold commas
                labelled = [c.elements for c in carriers_of(sort, spec) if c.label() == chunk.strip()]
                if not labelled:
                    raise LatcopError(f"--omega value {tok!r} is not an element of {sort.name!r}")
                elements = labelled[0]
                break
        carriers.append(carrier_from_filter(sort, spec, elements))
    if not carriers:
        raise LatcopError("--omega gave no carriers")
    return tuple(carriers)


def _nonnegative_int(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_classify(args) -> int:
    inputs = _load_many(args.source)
    kwargs = {"size_cap": args.cap} if args.cap else {}
    report = flowchart_classify(inputs.algebras, inputs.spec, **kwargs)
    _emit(report.to_json() + "\n" if args.json else report.to_text(), args.out)
    return EXIT_UNKNOWN if report.unknown is not None else EXIT_OK


def _cmd_duality(args) -> int:
    inputs = _load_many(args.source)
    omega = _resolve_omega(args.omega, inputs)
    ego = build_alter_ego(inputs.algebras, inputs.spec, omega)
    cert = ego.minimality
    if args.json:
        doc = {
            "schema": 1,
            "sorts": [{"name": m.name, "size": m.size} for m in ego.sorts],
            "omega": [w.label() for w in ego.carriers],
            "relations": [
                {
                    "omega1": ego.carriers[r.omega1].label(),
                    "omega2": ego.carriers[r.omega2].label(),
                    "pairs": [list(p) for p in r.pairs],
                }
                for r in ego.relations
            ],
            "operations": [
                {"source": g.source.name, "target": g.target.name, "map": list(g.map)}
                for g in ego.operations
            ],
        }
        if cert is not None:
            doc["omega_minimality"] = {
                "size": cert.size,
                "alternatives_of_same_size": cert.alternatives,
            }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    lines = [f"piggyback duality for ISP({', '.join(m.name for m in ego.sorts)})"]
    lines.append("carriers: " + ", ".join(w.label() for w in ego.carriers))
    if cert is not None:
        lines.append(
            f"  (minimal size {cert.size}, {cert.alternatives} alternative choice(s))"
        )
    lines.append("relations:")
    for r in ego.relations:
        m1, m2 = ego.sorts[r.sort1], ego.sorts[r.sort2]
        pretty = ",".join(
            f"({m1.element_name(a)},{m2.element_name(b)})" for a, b in r.pairs
        )
        lines.append(
            f"  R[{ego.carriers[r.omega1].label()},{ego.carriers[r.omega2].label()}]"
            f" {{{pretty}}}"
        )
    lines.append("operations:")
    for g in ego.operations:
        lines.append(f"  {g.source.name} -> {g.target.name}: {list(g.map)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_coproduct(args) -> int:
    inputs = _load_many(args.source)
    family = inputs.algebras
    # generators: the distinct algebras among the operands
    gens: list[FiniteAlgebra] = []
    for a in family:
        if not any(a == g for g in gens):
            gens.append(a)
    omega = _resolve_omega(args.omega, inputs)
    kwargs = {"points_cap": args.cap} if args.cap else {}
    result = coproduct(gens, inputs.spec, omega, family, **kwargs)
    if args.json:
        doc = {
            "schema": 1,
            "family": [b.name for b in family],
            "size": result.algebra.size,
            "injections": [
                {"source": eps.source.name, "map": list(eps.map)}
                for eps in result.injections
            ],
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    lines = [f"coproduct of {', '.join(b.name for b in family)}"]
    lines.append(f"size {result.algebra.size}")
    for eps in result.injections:
        lines.append(f"injection from {eps.source.name}: {list(eps.map)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_free(args) -> int:
    inputs = _load_many(args.source)
    kwargs = {"cap": args.cap} if args.cap else {}
    f = free_algebra(inputs.algebras, args.n, **kwargs)
    if args.json:
        doc = {
            "schema": 1,
            "generators": [m.name for m in inputs.algebras],
            "rank": args.n,
            "size": f.size,
            "free_generators": list(f.generators or ()),
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        return EXIT_OK
    _emit(
        f"free algebra on {args.n} generator(s) over "
        f"ISP({', '.join(m.name for m in inputs.algebras)}): size {f.size}, "
        f"free generators at {list(f.generators or ())}\n",
        args.out,
    )
    return EXIT_OK


def _cmd_reveng(args) -> int:
    inputs = _load_many(args.source)
    omega = _resolve_omega(args.omega, inputs)
    ego = build_alter_ego(inputs.algebras, inputs.spec, omega)
    lines = []
    for a in inputs.algebras:
        r = reveng_priestley(a, ego)
        lines.append(
            f"{a.name}: preorder on {r.preorder.size} pairs, quotient poset of "
            f"size {r.quotient.size}, isomorphic to the prime-filter poset: yes"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_table1(args) -> int:
    from .catalog import table1_suite

    rows = []
    ok = True
    for entry, expected in table1_suite():
        report = flowchart_classify([entry.algebra], entry.spec)
        got = (report.verdict_E, report.verdict_S)
        match = got == expected
        ok = ok and match
        rows.append((entry.key, expected, got, match))
    if args.json:
        doc = {
            "schema": 1,
            "results": [
                {
                    "id": key,
                    "expected": {"E": e, "S": s},
                    "computed": {"E": ge, "S": gs},
                    "match": match,
                }
                for key, (e, s), (ge, gs), match in rows
            ],
            "all_match": ok,
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for key, (e, s), (ge, gs), match in rows:
            flag = "ok " if match else "MISMATCH"
            lines.append(
                f"{flag} {key:22s} expected E={'y' if e else 'n'} S={'y' if s else 'n'}"
                f"  computed E={'y' if ge else 'n'} S={'y' if gs else 'n'}"
            )
        lines.append("all match" if ok else "SOME ROWS MISMATCH")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_INTERNAL


def _cmd_export_dot(args) -> int:
    if not args.reveng and (len(args.source) > 1 or args.omega != "auto"):
        raise LatcopError("more than one source and --omega are read only with --reveng")
    inputs = _load_many(args.source)
    if args.reveng:
        omega = _resolve_omega(args.omega, inputs)
        ego = build_alter_ego(inputs.algebras, inputs.spec, omega)
        poset = reveng_priestley(inputs.algebras[0], ego).quotient
        name = "reconstruction"
    else:
        poset = priestley_dual(d_reduct(inputs.algebras[0], inputs.spec))
        name = "priestley_dual"
    _emit(poset.to_dot(name), args.out)
    return EXIT_OK


def _cmd_export_alg(args) -> int:
    entry = make_id(args.id)
    _emit(export_entry(entry), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcop",
        description=(
            "Coproduct analysis for finitely generated quasivarieties of "
            "distributive-lattice-based finite algebras.  Tables in .alg "
            "files are row-major over lexicographically ordered argument "
            "tuples.  Catalog ids: " + ", ".join(CONSTRUCTOR_IDS)
        ),
    )
    parser.add_argument("--version", action="version", version=f"latcop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        """Add --out and the named flags: 'source', 'json', 'cap', 'omega'."""
        if "source" in flags:
            p.add_argument("source", nargs="+", help="catalog id or .alg file")
        if "json" in flags:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", default=None, help="output path ('-' = stdout)")
        if "cap" in flags:
            # argparse converts a string default too: a bad $LATCOP_CAP exits 2
            p.add_argument(
                "--cap",
                type=_positive_int,
                default=os.environ.get(CAP_ENV) or None,
                help=f"size cap override, a positive integer (also via ${CAP_ENV})",
            )
        if "omega" in flags:
            p.add_argument(
                "--omega",
                default="auto",
                help=(
                    "carrier maps: 'auto' or ';'-separated filters, each a "
                    "comma list of element labels/indices or a printed carrier "
                    "label, optionally prefixed 'sortname:'"
                ),
            )

    p = sub.add_parser("classify", help="run the E/S flowchart")
    common(p, "source", "json", "cap")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("duality", help="print carriers, relations and operations")
    common(p, "source", "json", "omega")
    p.set_defaults(fn=_cmd_duality)

    p = sub.add_parser("coproduct", help="coproduct of the listed algebras")
    common(p, "source", "json", "cap", "omega")
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("free", help="free algebra on N generators")
    p.add_argument("n", type=_nonnegative_int, help="number of free generators")
    common(p, "source", "json", "cap")
    p.set_defaults(fn=_cmd_free)

    p = sub.add_parser(
        "reveng-check", help="verify the Priestley dual reconstruction"
    )
    common(p, "source", "omega")
    p.set_defaults(fn=_cmd_reveng)

    p = sub.add_parser("table1", help="reproduce the classification table")
    common(p, "json")
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("export-dot", help="Hasse diagram of the Priestley dual")
    common(p, "source", "omega")
    p.add_argument(
        "--reveng",
        action="store_true",
        help="emit the reconstruction quotient poset instead",
    )
    p.set_defaults(fn=_cmd_export_dot)

    p = sub.add_parser("export-alg", help="print a catalog entry in .alg format")
    p.add_argument("id", help="catalog id")
    common(p)
    p.set_defaults(fn=_cmd_export_alg)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"unknown: {exc}; {exc.budget_note()}", file=sys.stderr)
        return EXIT_UNKNOWN
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (LatcopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a bug, never to be read as "unknown" or bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

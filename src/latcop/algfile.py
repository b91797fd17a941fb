"""The line-oriented algebra definition format.

    algebra NAME size N
    elements LABEL0 LABEL1 ...
    op SYM ARITY
    table SYM = v0 v1 ...
    reduct meet=TERM join=TERM bot=TERM top=TERM
    carrier {LABEL LABEL ...}

Tables list values in row-major order over lexicographically ordered
argument tuples.  Values and carrier entries may be element indices or
labels (labels need an ``elements`` line earlier in the block).  TERM is a
parenthesized prefix expression over the declared symbols and the variables
x0, x1; nullary symbols may be written bare or as ``(sym)``.  Blank lines
and ``#`` comments are ignored.  A file may define several algebras.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import FIGURE_CEILING, FiniteAlgebra, Signature, Term, app, var
from .catalog import CatalogEntry, decimal
from .distlat import DReductSpec
from .errors import LatcopError, ParseError

# a term's str and == recurse up to four frames a level: 216 levels leave 136 of the default 1,000
MAX_TERM_DEPTH = 216


@dataclass
class ParsedAlgebra:
    algebra: FiniteAlgebra
    reduct: DReductSpec | None = None
    carriers: tuple[frozenset[int], ...] = ()


@dataclass
class AlgebraFile:
    algebras: list[ParsedAlgebra] = field(default_factory=list)


def _parse_term(tokens: list[str], pos: int, line: int, signature: Signature, depth: int = 1) -> tuple[Term, int]:
    if pos >= len(tokens):
        raise ParseError("unexpected end of term", line)
    tok = tokens[pos]
    if tok == "(":
        if depth > MAX_TERM_DEPTH:
            raise ParseError(f"term nested more than {MAX_TERM_DEPTH} parentheses deep", line)
        if pos + 1 >= len(tokens):
            raise ParseError("unexpected end of term after '('", line)
        sym = tokens[pos + 1]
        if sym not in signature:
            raise ParseError(f"undefined symbol {sym!r} in term", line)
        arity = signature.arity(sym)
        args = []
        cur = pos + 2
        for _ in range(arity):
            sub, cur = _parse_term(tokens, cur, line, signature, depth + 1)
            args.append(sub)
        if cur >= len(tokens) or tokens[cur] != ")":
            raise ParseError(f"expected ')' closing {sym!r}", line)
        return app(sym, *args), cur + 1
    m = re.fullmatch(r"x(\d+)", tok)
    if m:
        return var(decimal(m.group(1), line=line)), pos + 1
    if tok in signature:
        if signature.arity(tok) != 0:
            raise ParseError(f"symbol {tok!r} needs parentheses and arguments", line)
        return app(tok), pos + 1
    raise ParseError(f"cannot parse term token {tok!r}", line)


def parse_term_text(text: str, signature: Signature, line: int = 1) -> Term:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    term, pos = _parse_term(tokens, 0, line, signature)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens after term: {' '.join(tokens[pos:])}", line)
    return term


_REDUCT_RE = re.compile(r"\b(meet|join|bot|top)=")


@dataclass
class _Block:
    """One algebra block accumulated before resolution."""

    name: str
    size: int
    start_line: int
    elements: tuple[str, ...] | None = None
    ops: list[tuple[str, int, int]] = field(default_factory=list)  # (sym, arity, line)
    tables: dict[str, tuple[list[str], int]] = field(default_factory=dict)
    reduct_line: tuple[str, int] | None = None
    carriers: list[tuple[list[str], int]] = field(default_factory=list)

    def resolve_value(self, token: str, line: int) -> int:
        if token.removeprefix("-").isdecimal():
            v = decimal(token, line=line)
        elif self.elements is not None and token in self.elements:
            v = self.elements.index(token)
        else:
            raise ParseError(
                f"value {token!r} is neither an index nor a declared label", line
            )
        if not 0 <= v < self.size:
            raise ParseError(f"value {v} outside universe 0..{self.size - 1}", line)
        return v

    def build(self) -> ParsedAlgebra:
        if not self.ops:
            raise ParseError(f"algebra {self.name!r} declares no operations", self.start_line)
        tables = []
        for sym, arity, decl_line in self.ops:
            if sym not in self.tables:
                raise ParseError(f"missing table for symbol {sym!r}", decl_line)
            raw, line = self.tables[sym]
            # for size >= 2 an arity past len(raw).bit_length() is too long
            # already, so size**arity is not formed, nor printed past FIGURE_CEILING
            huge = self.size > 1 and (arity > len(raw).bit_length() or self.size**arity > FIGURE_CEILING)
            expected = f"{self.size}**{arity}" if huge else self.size**arity
            if huge or len(raw) != expected:
                raise ParseError(
                    f"table for {sym!r} has length {len(raw)}, expected {expected}",
                    line,
                )
            tables.append(tuple(self.resolve_value(t, line) for t in raw))
        # after the tables, so a table of the wrong length is reported first
        signature = Signature(tuple((sym, arity) for sym, arity, _ in self.ops))
        algebra = FiniteAlgebra(
            self.name, self.size, signature, tuple(tables), self.elements
        )
        reduct = None
        if self.reduct_line is not None:
            text, line = self.reduct_line
            parts: dict[str, Term] = {}
            matches = list(_REDUCT_RE.finditer(text))
            if not matches:
                raise ParseError("reduct line needs meet=/join=/bot=/top= fields", line)
            for k, m in enumerate(matches):
                end = matches[k + 1].start() if k + 1 < len(matches) else len(text)
                term_text = text[m.end() : end].strip()
                parts[m.group(1)] = parse_term_text(term_text, signature, line)
            missing = {"meet", "join", "bot", "top"} - parts.keys()
            if missing:
                raise ParseError(f"reduct line missing {sorted(missing)}", line)
            try:
                reduct = DReductSpec(parts["meet"], parts["join"], parts["bot"], parts["top"])
            except LatcopError as exc:  # a variable past x1, or in a bound
                raise ParseError(str(exc), line) from None
        carriers = tuple(
            frozenset(self.resolve_value(t, line) for t in toks)
            for toks, line in self.carriers
        )
        return ParsedAlgebra(algebra, reduct, carriers)


def parse_algebra_file(text: str) -> AlgebraFile:
    """Parse the text of an ``.alg`` file; errors carry line locations.

    Semantic validation beyond arities and table lengths (lattice axioms,
    carrier primality) is the caller's responsibility.
    """
    out = AlgebraFile()
    block: _Block | None = None

    def flush():
        nonlocal block
        if block is not None:
            out.algebras.append(block.build())
            block = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        key = words[0]
        if key == "algebra":
            flush()
            m = re.fullmatch(r"algebra\s+(\S+)\s+size\s+(\d+)", line)
            if not m:
                raise ParseError("expected 'algebra NAME size N'", lineno)
            size = decimal(m.group(2), line=lineno)
            if size < 1:
                raise ParseError("size must be positive", lineno)
            block = _Block(m.group(1), size, lineno)
            continue
        if block is None:
            raise ParseError(f"{key!r} before any 'algebra' header", lineno)
        if key == "elements":
            labels = tuple(words[1:])
            if len(labels) != block.size:
                raise ParseError(
                    f"{len(labels)} labels for universe of size {block.size}", lineno
                )
            if len(set(labels)) != len(labels):
                raise ParseError("element labels must be distinct", lineno)
            block.elements = labels
        elif key == "op":
            if len(words) != 3 or not words[2].isdecimal():
                raise ParseError("expected 'op SYM ARITY'", lineno)
            sym = words[1]
            if any(s == sym for s, _, _ in block.ops):
                raise ParseError(f"duplicate op {sym!r}", lineno)
            block.ops.append((sym, decimal(words[2], line=lineno), lineno))
        elif key == "table":
            m = re.fullmatch(r"table\s+(\S+)\s*=\s*(.*)", line)
            if not m:
                raise ParseError("expected 'table SYM = v0 v1 ...'", lineno)
            sym = m.group(1)
            if not any(s == sym for s, _, _ in block.ops):
                raise ParseError(f"table for undeclared symbol {sym!r}", lineno)
            if sym in block.tables:
                raise ParseError(f"duplicate table for {sym!r}", lineno)
            block.tables[sym] = (m.group(2).split(), lineno)
        elif key == "reduct":
            if block.reduct_line is not None:
                raise ParseError("duplicate reduct line", lineno)
            block.reduct_line = (line[len("reduct") :].strip(), lineno)
        elif key == "carrier":
            m = re.fullmatch(r"carrier\s*\{(.*)\}", line)
            if not m:
                raise ParseError("expected 'carrier {LABELS...}'", lineno)
            toks = m.group(1).replace(",", " ").split()
            if not toks:
                raise ParseError("empty carrier set", lineno)
            block.carriers.append((toks, lineno))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    flush()
    if not out.algebras:
        raise ParseError("file defines no algebras", 1)
    return out


def export_algebra(
    algebra: FiniteAlgebra,
    reduct: DReductSpec | None = None,
    carriers: tuple[frozenset[int], ...] | None = None,
) -> str:
    """Render one algebra block; parse(export(x)) round-trips."""
    lines = [f"algebra {algebra.name} size {algebra.size}"]
    if algebra.element_names is not None:
        lines.append("elements " + " ".join(algebra.element_names))
    for sym, arity in algebra.signature.symbols:
        lines.append(f"op {sym} {arity}")
    for (sym, _), table in zip(algebra.signature.symbols, algebra.tables):
        lines.append(f"table {sym} = " + " ".join(str(v) for v in table))
    if reduct is not None:
        lines.append(
            f"reduct meet={reduct.meet} join={reduct.join} "
            f"bot={reduct.bot} top={reduct.top}"
        )
    for filt in carriers or ():
        lines.append(
            "carrier {" + " ".join(str(x) for x in sorted(filt)) + "}"
        )
    return "\n".join(lines) + "\n"


def export_entry(entry: CatalogEntry) -> str:
    return export_algebra(entry.algebra, entry.spec, entry.carriers)

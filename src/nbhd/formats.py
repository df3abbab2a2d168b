"""Line-oriented text formats for algebras, maps and matrices.

Algebra files (UTF-8, one key per line, '#' starts a comment)::

    ring: Q            # or Z, or Z/5
    vars: e1 e2
    rels: e1^2 ; e2^2 ; e1*e2    # optional
    strategy: monomial           # or groebner; optional, see below

The relations pick the normal-form engine (see nbhd.algebra).  dump_algebra
writes the engine as a strategy line for information; on input the line may
say monomial or groebner and is otherwise ignored.

Map files point at two algebra files and give semicolon-separated images::

    domain: free.alg  codomain: weil.alg
    images: e1 ; e2

Matrix files hold one row per line, entries comma-separated, parsed over a
given algebra.
"""

from __future__ import annotations

import os
import re

from .arith import RingSpec
from .errors import UnknownFormat
from .algebra import AlgebraMap, FpAlgebra
from .ideal import DEFAULT_DEGREE_CAP
from .neighbour import SimplexMatrix
from .poly import DEFAULT_ORDER, MonomialOrder, VarSet, parse_poly


_MAP_KEY_RE = re.compile(r"(?<![A-Za-z0-9_])(domain|codomain):\s*(\S+)")


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _key_lines(text: str, what: str) -> dict[str, str]:
    found: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or not key or " " in key:
            raise UnknownFormat(f"{what}: line {lineno} is not 'key: value'")
        if key in found:
            raise UnknownFormat(f"{what}: duplicate key {key!r} on line {lineno}")
        found[key] = value.strip()
    return found


def parse_algebra(
    text: str, order: MonomialOrder = DEFAULT_ORDER, degree_cap: int = DEFAULT_DEGREE_CAP
) -> FpAlgebra:
    """Build an algebra from its file text; order and degree_cap go to FpAlgebra."""
    keys = _key_lines(text, "algebra file")
    unknown = set(keys) - {"ring", "vars", "rels", "strategy"}
    if unknown:
        raise UnknownFormat(f"algebra file: unknown keys {sorted(unknown)}")
    if "ring" not in keys:
        raise UnknownFormat("algebra file: missing 'ring:' line")
    if "vars" not in keys:
        raise UnknownFormat("algebra file: missing 'vars:' line")
    ring = RingSpec.parse(keys["ring"])
    varset = VarSet(tuple(keys["vars"].split()))
    rel_text = keys.get("rels", "")
    relations = [
        parse_poly(part, varset, ring)
        for part in rel_text.split(";")
        if part.strip()
    ]
    if keys.get("strategy", "monomial") not in ("monomial", "groebner"):
        raise UnknownFormat(f"algebra file: unknown strategy {keys['strategy']!r}")
    return FpAlgebra(ring, varset, relations, order, degree_cap)


def load_algebra(
    path: str, order: MonomialOrder = DEFAULT_ORDER, degree_cap: int = DEFAULT_DEGREE_CAP
) -> FpAlgebra:
    with open(path, encoding="utf-8") as handle:
        return parse_algebra(handle.read(), order, degree_cap)


def dump_algebra(algebra: FpAlgebra) -> str:
    lines = [f"ring: {algebra.ring}", "vars: " + " ".join(algebra.varset.names)]
    if algebra.relations:
        lines.append("rels: " + " ; ".join(str(r) for r in algebra.relations))
    lines.append(f"strategy: {algebra.strategy}")
    return "\n".join(lines) + "\n"


def load_map(path: str, order: MonomialOrder = DEFAULT_ORDER) -> AlgebraMap:
    """Load a map file; the referenced algebra paths are resolved relative to it."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    base_dir = os.path.dirname(os.path.abspath(path))
    tokens: dict[str, str] = {}
    images_text: str | None = None
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if images_text is not None:
            # image lists may continue over following lines
            images_text += " " + line
            continue
        if line.startswith("images:"):
            images_text = line[len("images:") :]
            continue
        matches = list(_MAP_KEY_RE.finditer(line))
        leftover = _MAP_KEY_RE.sub("", line).strip()
        if not matches or leftover:
            raise UnknownFormat(f"map file: unexpected content {line!r}")
        for m in matches:
            key, value = m.group(1), m.group(2)
            if key in tokens:
                raise UnknownFormat(f"map file: duplicate key {key!r}")
            tokens[key] = value
    if "domain" not in tokens or "codomain" not in tokens:
        raise UnknownFormat("map file: need 'domain:' and 'codomain:' paths")
    if images_text is None:
        raise UnknownFormat("map file: missing 'images:' line")
    domain = load_algebra(os.path.join(base_dir, tokens["domain"]), order)
    codomain = load_algebra(os.path.join(base_dir, tokens["codomain"]), order)
    images = [
        parse_poly(part, codomain.varset, codomain.ring)
        for part in images_text.split(";")
        if part.strip()
    ]
    if not images and images_text.strip():
        raise UnknownFormat("map file: malformed image list")
    return AlgebraMap(domain, codomain, images)


def parse_matrix(text: str, algebra: FpAlgebra) -> SimplexMatrix:
    rows = []
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        rows.append(
            [parse_poly(part, algebra.varset, algebra.ring) for part in line.split(",")]
        )
    if not rows:
        raise UnknownFormat("matrix file: no rows")
    return SimplexMatrix(algebra, rows)


def load_matrix(path: str, algebra: FpAlgebra) -> SimplexMatrix:
    with open(path, encoding="utf-8") as handle:
        return parse_matrix(handle.read(), algebra)


def dump_matrix(matrix: SimplexMatrix) -> str:
    return "\n".join(
        ", ".join(str(entry) for entry in row) for row in matrix.entries
    ) + "\n"

"""Text file formats: vector-set files and DIMACS clique-benchmark export.

Both formats are deterministic, sorted, line-oriented text so that fixtures
can be audited by eye and diffed as tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .core import (
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    materialize,
    plain_degree,
    star_degree,
)
from .construction import VectorSet

__all__ = [
    "VectorSetFileError",
    "HeaderFormatError",
    "VectorLineError",
    "DuplicateVectorError",
    "CountMismatchError",
    "DimacsFile",
    "write_vector_set",
    "read_vector_set",
    "export_dimacs",
]

PathLike = Union[str, Path]


class VectorSetFileError(ValueError):
    """Base for vector-set file format violations."""


class HeaderFormatError(VectorSetFileError):
    pass


class VectorLineError(VectorSetFileError):
    pass


class DuplicateVectorError(VectorSetFileError):
    pass


class CountMismatchError(VectorSetFileError):
    pass


_HEADER_RE = re.compile(r"dim=(\d+) count=(\d+)\Z")


def write_vector_set(path: PathLike, s: VectorSet) -> None:
    """Write ``dim=<n> count=<c>`` then one sorted digit-string line per vector."""
    lines = [f"dim={s.dim} count={len(s)}"]
    lines.extend(str(v) for v in s)  # members are kept lexicographically sorted
    Path(path).write_text("\n".join(lines) + "\n")


def read_vector_set(path: PathLike) -> VectorSet:
    """Parse a vector-set file, validating header, digits, and uniqueness."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise HeaderFormatError("empty file, expected 'dim=<n> count=<c>' header")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise HeaderFormatError(f"bad header line: {lines[0]!r}")
    dim, count = int(m.group(1)), int(m.group(2))
    if dim < 1:
        raise HeaderFormatError(f"dimension must be positive, got {dim}")
    body = lines[1:]
    seen: set[str] = set()
    for lineno, line in enumerate(body, start=2):
        if len(line) != dim or any(c not in "0123" for c in line):
            raise VectorLineError(
                f"line {lineno}: expected {dim} digits over 0123, got {line!r}"
            )
        if line in seen:
            raise DuplicateVectorError(f"line {lineno}: duplicate vector {line}")
        seen.add(line)
    if len(body) != count:
        raise CountMismatchError(f"header says count={count} but file has {len(body)} vectors")
    # the reversed digit string is the packed value in base 4
    return VectorSet._from_packed(dim, [int(line[::-1], 4) for line in body])


@dataclass(frozen=True)
class DimacsFile:
    path: Path
    num_vertices: int
    num_edges: int


def export_dimacs(
    spec: KellerGraphSpec, path: PathLike, *, graph: Optional[MaterializedGraph] = None
) -> DimacsFile:
    """Write a Keller graph in DIMACS edge format (1-based vertex ids).

    Vertex id of vector m is 1 + sum_i m_i 4^i.  The edge count is
    cross-checked against the closed-form regular degree before writing.
    Pass an already-materialized graph to skip rebuilding it.
    """
    g = graph if graph is not None else materialize(spec)
    if g.spec != spec:
        raise ValueError("materialized graph does not match spec")
    nverts = g.num_vertices
    nedges = g.num_edges
    degree = plain_degree(spec.dim) if spec.variant is GraphVariant.PLAIN else star_degree(spec.dim)
    if nedges * 2 != nverts * degree:
        raise AssertionError(
            f"edge count {nedges} disagrees with closed form {nverts * degree // 2}"
        )
    out = Path(path)
    with out.open("w") as f:
        f.write(f"c keller graph {spec.variant.value} dim {spec.dim}\n")
        f.write("c vertex id = 1 + sum_i digit_i * 4^i\n")
        f.write(f"p edge {nverts} {nedges}\n")
        for u, v in g.edges():
            f.write(f"e {u + 1} {v + 1}\n")
    return DimacsFile(path=out, num_vertices=nverts, num_edges=nedges)

"""Text file formats: vector-set files and DIMACS clique-benchmark export.

Both formats are deterministic, sorted, line-oriented text so that fixtures
can be audited by eye and diffed as tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .core import (
    GraphVariant,
    KellerGraphSpec,
    MaterializedGraph,
    VectorSet,
    _digit_columns,
    materialize,
    plain_degree,
    star_degree,
)

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


_HEADER_RE = re.compile(r"dim=([0-9]+) count=([0-9]+)\Z")


def write_vector_set(path: PathLike, s: VectorSet) -> None:
    """Write ``dim=<n> count=<c>`` then one sorted digit-string line per vector."""
    # members are kept lexicographically sorted; one row of ASCII digits and
    # a newline per vector, coordinate 0 first
    body = np.full((len(s), s.dim + 1), ord("\n"), dtype=np.uint8)
    body[:, :-1] = _digit_columns(s.packed, s.dim) + ord("0")
    Path(path).write_bytes(f"dim={s.dim} count={len(s)}\n".encode() + body.tobytes())


def read_vector_set(path: PathLike) -> VectorSet:
    """Parse a vector-set file, validating header, digits, and uniqueness."""
    # read_text maps \r\n and \r to \n; split on \n alone, since
    # str.splitlines also breaks at \x0b, \x0c, \x1c-\x1e, \x85 and
    # \u2028-\u2029, and drop the empty string after a final newline.  The
    # format is ASCII whatever the locale: a byte above 0x7f reads as U+FFFD,
    # which no header or vector line matches
    lines = Path(path).read_text(encoding="ascii", errors="replace").split("\n")
    if not lines[-1]:
        lines.pop()
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
        if len(line) != dim or line.strip("0123"):
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
        # one chunk of lines per vertex, so the file is never held whole
        names = np.arange(1, nverts + 1).astype(str)
        for u, higher in g._higher_neighbours():
            if higher.size:
                pre = f"e {names[u]} "
                f.write(pre + ("\n" + pre).join(names[higher].tolist()) + "\n")
    return DimacsFile(path=out, num_vertices=nverts, num_edges=nedges)

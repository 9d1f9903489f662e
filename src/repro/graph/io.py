"""Graph file I/O: edge lists, DIMACS, and METIS.

The paper's 28 inputs are distributed in a mix of these formats; the
reproduction's dataset registry generates graphs in memory but the loaders
make the library usable on real downloaded inputs, and the writers let the
benches persist generated instances for external cross-checking.
"""

from __future__ import annotations

import gzip
import itertools
import re
from pathlib import Path

import numpy as np

from ..errors import GraphFormatError
from .builders import check_vertex_count, from_edges
from .csr import CSRGraph


def _open_text(path: str | Path, mode: str = "rt"):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def read_edge_list(path: str | Path, *, comment: str = "#",
                   zero_indexed: bool | None = None) -> CSRGraph:
    """Read a whitespace-separated edge list (SNAP style).

    ``zero_indexed=None`` auto-detects: if the minimum vertex id seen is 1
    and 0 never appears, ids are shifted down by one.  Blank lines and
    lines starting with ``comment`` or ``%`` are skipped; columns after
    the first two are ignored.  The file is parsed about 1 MiB of whole
    lines at a time: one regex scan and one ``int`` map per block, and
    only a block that fails them is walked line by line, to name its
    first bad line.
    """
    # The first two fields of every line that is neither blank nor a
    # comment; the second is empty on a line with one field, and fails
    # the int map like any other non-integer field.
    first_two = re.compile(rf"^[^\S\n]*(?!{re.escape(comment)}|%)"
                           r"(\S+)(?:[^\S\n]+(\S+))?", re.M)
    ids: list[int] = []
    lineno = 1
    with _open_text(path) as fh:
        while block := fh.read(1 << 20):
            block += fh.readline()  # finish the last line
            pairs = first_two.findall(block)
            try:
                ids += map(int, itertools.chain.from_iterable(pairs))
            except ValueError:
                _raise_first_bad_line(block, lineno, comment)
            lineno += block.count("\n")
    if not ids:
        return from_edges(0, [])
    min_id, max_id = min(ids), max(ids)
    if zero_indexed is None:
        zero_indexed = (min_id == 0)
    shift = 0 if zero_indexed else 1
    if min_id - shift < 0:
        raise GraphFormatError("negative vertex id after index adjustment")
    n = check_vertex_count(max_id + 1 - shift)
    arr = np.array(ids, dtype=np.int64).reshape(-1, 2) - shift
    return from_edges(n, arr)


def _raise_first_bad_line(block: str, lineno: int, comment: str) -> None:
    """Raise the :class:`GraphFormatError` naming the first malformed line
    of ``block``, whose first line is line ``lineno`` of the file."""
    for lineno, line in enumerate(block.split("\n"), lineno):
        line = line.strip()
        if not line or line.startswith((comment, "%")):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids")
        try:
            int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer id") from exc
    raise GraphFormatError(f"line {lineno}: unreadable edge list")


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write one ``u v`` line per undirected edge (u < v), zero-indexed."""
    with _open_text(path, "wt") as fh:
        fh.write(f"# nodes: {graph.n} edges: {graph.m}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def read_dimacs(path: str | Path) -> CSRGraph:
    """Read DIMACS clique format (``p edge n m`` header, ``e u v`` lines).

    DIMACS ids are 1-based.
    """
    n = None
    edges = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                parts = line.split()
                if len(parts) < 4:
                    raise GraphFormatError(f"line {lineno}: malformed problem line")
                n = check_vertex_count(int(parts[2]))
            elif line.startswith("e"):
                parts = line.split()
                if n is None:
                    raise GraphFormatError("edge line before problem line")
                if len(parts) < 3:
                    raise GraphFormatError(f"line {lineno}: malformed edge line")
                u, v = int(parts[1]), int(parts[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError(
                        f"line {lineno}: vertex id out of range [1, {n}]")
                edges.append((u - 1, v - 1))
    if n is None:
        raise GraphFormatError("missing DIMACS problem line")
    return from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def write_dimacs(graph: CSRGraph, path: str | Path) -> None:
    """Write DIMACS clique format (1-based ids)."""
    with _open_text(path, "wt") as fh:
        fh.write(f"p edge {graph.n} {graph.m}\n")
        for u, v in graph.edges():
            fh.write(f"e {u + 1} {v + 1}\n")


def read_metis(path: str | Path) -> CSRGraph:
    """Read a METIS adjacency file (1-based; header ``n m [fmt]``)."""
    with _open_text(path) as fh:
        n = None
        adjacency = []
        for line in fh:
            line = line.strip()
            if line.startswith("%"):
                continue
            if n is None:
                if not line:
                    continue  # leading blank lines
                n = check_vertex_count(int(line.split()[0]))
                continue
            # After the header a blank line is a vertex with no neighbors.
            row = [int(x) - 1 for x in line.split()]
            if row and (min(row) < 0 or max(row) >= n):
                raise GraphFormatError(
                    f"row {len(adjacency) + 1}: vertex id out of range [1, {n}]")
            adjacency.append(row)
    if n is None:
        raise GraphFormatError("missing METIS header")
    if len(adjacency) != n:
        raise GraphFormatError(f"expected {n} adjacency rows, got {len(adjacency)}")
    from .builders import from_adjacency

    return from_adjacency(adjacency)


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write METIS adjacency format (1-based ids)."""
    with _open_text(path, "wt") as fh:
        fh.write(f"{graph.n} {graph.m}\n")
        for v in range(graph.n):
            fh.write(" ".join(str(int(u) + 1) for u in graph.neighbors(v)) + "\n")

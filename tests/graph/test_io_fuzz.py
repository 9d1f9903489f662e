"""Fuzzing the file parsers: malformed input must raise GraphFormatError
(or parse cleanly) — never crash with an unrelated exception."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graph.io import read_dimacs, read_edge_list, read_metis

printable_line = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30)


def _roundtrip(text: str, parser, suffix: str):
    with tempfile.NamedTemporaryFile("wt", suffix=suffix, delete=False) as fh:
        fh.write(text)
        name = fh.name
    try:
        return parser(name)
    finally:
        Path(name).unlink(missing_ok=True)


@given(st.lists(printable_line, max_size=12))
@settings(max_examples=80, deadline=None)
def test_edge_list_fuzz(lines):
    try:
        g = _roundtrip("\n".join(lines), read_edge_list, ".txt")
        assert g.n >= 0
    except ReproError:
        pass  # rejecting malformed input is correct


@given(st.lists(printable_line, max_size=12))
@settings(max_examples=80, deadline=None)
def test_dimacs_fuzz(lines):
    try:
        _roundtrip("\n".join(lines), read_dimacs, ".col")
    except (ReproError, ValueError, IndexError):
        # DIMACS 'e'/'p' lines with junk fields may fail int() parsing or
        # field indexing; any of these is an acceptable rejection, a
        # crash or silent corruption is not.
        pass


@given(st.lists(printable_line, max_size=12))
@settings(max_examples=80, deadline=None)
def test_metis_fuzz(lines):
    try:
        _roundtrip("\n".join(lines), read_metis, ".metis")
    except (ReproError, ValueError, IndexError):
        pass


def test_edge_list_rejects_binary_garbage(tmp_path):
    path = tmp_path / "b.txt"
    path.write_bytes(bytes(range(256)))
    with pytest.raises((ReproError, UnicodeDecodeError)):
        read_edge_list(path)


@pytest.mark.parametrize("text, suffix, parser", [
    ("0 100000000000\n", ".txt", read_edge_list),
    ("0 1180591620717411303424\n", ".txt", read_edge_list),
    ("p edge 100000000000 1\ne 1 2\n", ".col", read_dimacs),
    ("p edge 3 1\ne 1 1180591620717411303424\n", ".col", read_dimacs),
    ("2 1\n1180591620717411303424\n1\n", ".metis", read_metis),
], ids=["edge-list-1e11", "edge-list-2^70", "dimacs-header-1e11",
        "dimacs-edge-2^70", "metis-2^70"])
def test_out_of_range_ids_are_typed_errors(text, suffix, parser):
    # Ids past the CSR's int32 range must be rejected before anything
    # sized by them is allocated or converted to numpy.
    with pytest.raises(ReproError, match="range"):
        _roundtrip(text, parser, suffix)


def test_out_of_range_id_is_a_load_error_for_the_cli(tmp_path):
    from repro.cli import main

    path = tmp_path / "g.txt"
    path.write_text("0 100000000000\n")
    with pytest.raises(SystemExit, match="failed to load"):
        main(["solve", str(path)])


def _frozen_read_edge_list(path, *, comment="#", zero_indexed=None):
    """The line-at-a-time edge-list parser that the block parser replaced."""
    import gzip

    import numpy as np

    from repro.errors import GraphFormatError
    from repro.graph.builders import check_vertex_count, from_edges

    edges = []
    max_id = -1
    min_id = None
    opener = gzip.open if Path(path).suffix == ".gz" else open
    with opener(path, "rt") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(comment) or line.startswith("%"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer id") from exc
            edges.append((u, v))
            max_id = max(max_id, u, v)
            min_id = min(u, v) if min_id is None else min(min_id, u, v)
    if not edges:
        return from_edges(0, [])
    if zero_indexed is None:
        zero_indexed = (min_id == 0)
    shift = 0 if zero_indexed else 1
    if min_id - shift < 0:
        raise GraphFormatError("negative vertex id after index adjustment")
    n = check_vertex_count(max_id + 1 - shift)
    arr = np.asarray(edges, dtype=np.int64) - shift
    return from_edges(n, arr)


def _outcome(parser, path, **kwargs):
    from repro.graph.fingerprint import fingerprint

    try:
        return "graph", fingerprint(parser(path, **kwargs))
    except ReproError as exc:
        return type(exc).__name__, str(exc)


_ID = st.one_of(st.integers(-2, 40).map(str),
                st.sampled_from(["x", "1.5", "+3", "-0", "07", "1_0", ""]))
_EDGE_LINE = st.builds(
    lambda u, v, extra, pad: f"{pad}{u} {v}{extra}",
    st.integers(0, 40), st.integers(0, 40),
    st.sampled_from(["", " 1.0", "\t7 w"]), st.sampled_from(["", " ", "\t"]))
_LINE = st.one_of(
    _EDGE_LINE, _EDGE_LINE, _EDGE_LINE,
    st.builds(lambda a, b: f"{a} {b}", _ID, _ID),
    st.builds(lambda a: f"{a}", _ID),
    st.sampled_from(["", "   ", "# comment", "% note", "  # indented", "#"]),
    printable_line)


@given(st.lists(_LINE, max_size=30), st.booleans(),
       st.sampled_from([None, True, False]), st.sampled_from(["#", "c"]),
       st.sampled_from(["\n", "\r\n"]))
@settings(max_examples=200, deadline=None)
def test_edge_list_matches_frozen_parser(lines, shift_up, zero_indexed,
                                         comment, newline):
    """Same CSR sha256, or the same error class and line message, as the
    line-at-a-time parser, on clean, commented, malformed and 1-indexed
    input."""
    if shift_up:  # a 1-indexed file: every clean edge line moves up by one
        lines = [" ".join(str(int(t) + 1) if t.isdigit() else t
                          for t in line.split(" ")) for line in lines]
    kwargs = {"comment": comment, "zero_indexed": zero_indexed}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        path.write_bytes(newline.join(lines).encode())
        assert _outcome(read_edge_list, path, **kwargs) == \
            _outcome(_frozen_read_edge_list, path, **kwargs)


def test_edge_list_matches_frozen_parser_across_blocks(tmp_path):
    """A file longer than one read block: line numbers keep counting
    across blocks, in error messages too."""
    import gzip

    # About 50 bytes a line: three blocks of 1 MiB.
    lines = [f"{i % 997} {(i * 7 + 1) % 997} {'w' * 40}"
             for i in range(60_000)]
    for bad_at, bad in ((None, None), (45_000, "3 x"), (59_999, "5")):
        body = list(lines)
        if bad_at is not None:
            body[bad_at] = bad
        text = "# header\n" + "\n".join(body) + "\n"
        for path in (tmp_path / "g.txt", tmp_path / "g.txt.gz"):
            if path.suffix == ".gz":
                with gzip.open(path, "wt") as fh:
                    fh.write(text)
            else:
                path.write_text(text)
            new = _outcome(read_edge_list, path)
            assert new == _outcome(_frozen_read_edge_list, path)
            if bad_at is not None:
                assert new[1].startswith(f"line {bad_at + 2}:")

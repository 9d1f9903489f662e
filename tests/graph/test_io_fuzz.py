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

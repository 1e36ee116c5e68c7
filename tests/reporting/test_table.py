"""Tests for the table emitter."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.reporting.table import Table


class TestTable:
    def test_ascii_contains_headers_and_rows(self):
        t = Table(title="Cells", columns=["tech", "area"])
        t.add_row("cmos16t", 331)
        t.add_row("fefet2t", 74)
        text = t.to_ascii()
        assert "Cells" in text
        assert "cmos16t" in text and "74" in text

    def test_alignment_pads_columns(self):
        t = Table(title="", columns=["a", "long_header"])
        t.add_row("x", 1)
        lines = t.to_ascii().splitlines()
        header, sep, row = lines[0], lines[1], lines[2]
        assert len(header) == len(sep) == len(row)

    def test_row_count(self):
        t = Table(title="", columns=["a"])
        assert t.n_rows == 0
        t.add_row(1)
        assert t.n_rows == 1

    def test_rejects_wrong_cell_count(self):
        t = Table(title="", columns=["a", "b"])
        with pytest.raises(ReproError):
            t.add_row(1)

    def test_rejects_no_columns(self):
        with pytest.raises(ReproError):
            Table(title="", columns=[])

    def test_str_is_ascii(self):
        t = Table(title="T", columns=["a"])
        t.add_row("v")
        assert str(t) == t.to_ascii()

from fractions import Fraction

import pytest

import schemelab as sl
from schemelab import fileio
from schemelab.cli import main


def test_format_rational():
    assert fileio.format_rational(Fraction(5, 3)) == "5/3"
    assert fileio.format_rational(Fraction(4, 2)) == "2"
    assert fileio.format_rational(Fraction(-1, 2)) == "-1/2"
    assert fileio.format_rational(7) == "7"


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a triangle\na b\nb c # back edge\nc a\n\n")
        g = fileio.read_edge_list(path)
        assert g.labels == ("a", "b", "c")
        assert len(g.edges) == 3

    def test_bad_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b c\n")
        with pytest.raises(sl.InputError):
            fileio.read_edge_list(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# nothing\n")
        with pytest.raises(sl.InputError):
            fileio.read_edge_list(path)


def write_relation_file(path, scheme, spaced=True):
    lines = [f"{scheme.v} {scheme.d}"]
    for a in scheme.relations:
        lines.append("")
        for row in a.rows:
            cells = [str(int(x)) for x in row]
            lines.append(" ".join(cells) if spaced else "".join(cells))
    path.write_text("\n".join(lines) + "\n")


def integer_blocks(scheme):
    """A_0..A_d of a scheme as nested lists of Python ints."""
    return [[[int(x) for x in row] for row in a.rows]
            for a in scheme.relations]


class TestRelationFile:
    @pytest.mark.parametrize("spaced", [True, False])
    def test_round_trip(self, tmp_path, petersen, spaced):
        path = tmp_path / "p.rel"
        write_relation_file(path, petersen, spaced=spaced)
        labels, mats = fileio.read_relation_file(path)
        assert labels == tuple(str(i) for i in range(10))
        assert mats.dtype.kind == "i"
        assert mats.tolist() == integer_blocks(petersen)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("10\n")
        with pytest.raises(sl.InputError):
            fileio.read_relation_file(path)

    def test_tab_separated_rows(self, tmp_path, petersen):
        path = tmp_path / "p.rel"
        write_relation_file(path, petersen)
        path.write_text(path.read_text().replace(" ", "\t"))
        labels, mats = fileio.read_relation_file(path)
        assert mats.dtype.kind == "i"
        assert mats.tolist() == integer_blocks(petersen)

    def test_mixed_whitespace_rows(self, tmp_path):
        path = tmp_path / "k2.rel"
        path.write_text("2 1\n1\t0\n0  \t 1\n\n0 \t1\n1\t\t0\n")
        labels, mats = fileio.read_relation_file(path)
        assert mats.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]

    def test_tab_separated_file_verifies_on_cli(self, tmp_path, capsys):
        path = tmp_path / "k2.rel"
        path.write_text("2 1\n1\t0\n0\t1\n\n0\t1\n1\t0\n")
        assert main(["verify", "--relations", str(path)]) == 0
        assert "axioms: pass" in capsys.readouterr().out

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("2 1\n10\n01\n10\n")
        with pytest.raises(sl.InputError):
            fileio.read_relation_file(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "bad.rel"
        path.write_text("2 0\n10\n011\n")
        with pytest.raises(sl.InputError):
            fileio.read_relation_file(path)


class TestPartitionFile:
    def test_read(self, tmp_path, petersen):
        path = tmp_path / "cells.txt"
        path.write_text("0 0'\n1 2'\n2 1'\n3 4'\n4 3'\n")
        cells = fileio.read_partition_file(path, petersen.labels)
        assert cells[0] == ["0", "0'"]
        assert len(cells) == 5

    def test_unknown_label(self, tmp_path, petersen):
        path = tmp_path / "cells.txt"
        path.write_text("0 zebra\n")
        with pytest.raises(sl.InputError):
            fileio.read_partition_file(path, petersen.labels)


class TestPermutationFile:
    def test_mapping_form(self, tmp_path, petersen):
        path = tmp_path / "sigma.txt"
        path.write_text("\n".join(f"{lab} {lab}" for lab in petersen.labels))
        raw = fileio.read_permutation_file(path, petersen.labels)
        assert raw == {lab: lab for lab in petersen.labels}

    def test_image_form(self, tmp_path, petersen):
        path = tmp_path / "sigma.txt"
        path.write_text(" ".join(petersen.labels) + "\n")
        raw = fileio.read_permutation_file(path, petersen.labels)
        assert raw == list(petersen.labels)

    def test_duplicate_source(self, tmp_path, petersen):
        path = tmp_path / "sigma.txt"
        path.write_text("0 1\n0 2\n")
        with pytest.raises(sl.InputError):
            fileio.read_permutation_file(path, petersen.labels)

import itertools
import json

import pytest

import schemelab as sl
from schemelab.cli import main

from conftest import PAIR_CELLS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pairs.cells"
    path.write_text("\n".join(" ".join(cell) for cell in PAIR_CELLS) + "\n")
    return str(path)


@pytest.fixture
def vertex_partition_file(tmp_path):
    path = tmp_path / "vertex.cells"
    path.write_text("0\n1 4 0'\n2 3 1' 2' 3' 4'\n")
    return str(path)


class TestVerify:
    def test_petersen(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "petersen")
        assert code == 0
        assert "axioms: pass" in out
        assert "valencies: (1, 3, 6)" in out

    def test_hamming(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--family", "hamming,3,2")
        assert code == 0 and "v: 8" in out and "d: 3" in out

    def test_path_graph_rejected(self, capsys, tmp_path):
        edges = tmp_path / "path.edges"
        edges.write_text("a b\nb c\n")
        code, out, _ = run_cli(capsys, "verify", "--edges", str(edges), "--drg")
        assert code == 1
        assert "not distance-regular" in out

    def test_edges_without_drg(self, capsys, tmp_path):
        edges = tmp_path / "path.edges"
        edges.write_text("a b\n")
        code, _, err = run_cli(capsys, "verify", "--edges", str(edges))
        assert code == 2 and "drg" in err

    def test_relation_file(self, capsys, tmp_path, petersen):
        from test_fileio import write_relation_file
        rel = tmp_path / "petersen.rel"
        write_relation_file(rel, petersen)
        code, out, _ = run_cli(capsys, "verify", "--relations", str(rel))
        assert code == 0 and "valencies: (1, 3, 6)" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--relations", "/nope/missing")
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--family", "grassmann,4,2")
        assert code == 2 and "unknown family" in err


class TestSpectra:
    def test_petersen_exact(self, capsys):
        code, out, _ = run_cli(capsys, "spectra", "--family", "petersen")
        assert code == 0
        assert "mode: exact" in out
        assert "[1 3 6]" in out and "[1 1 -2]" in out and "[1 -2 1]" in out
        assert "multiplicities: (1, 5, 4)" in out

    def test_complete_graph(self, capsys):
        code, out, _ = run_cli(capsys, "spectra", "--family", "hamming,1,6")
        assert code == 0
        assert "[1 5]" in out and "[1 -1]" in out

    def test_cycle_float_warning(self, capsys):
        code, out, _ = run_cli(capsys, "spectra", "--family", "cycle,5")
        assert code == 0
        assert "mode: float" in out
        assert "warning: irrational spectrum" in out

    def test_exact_mode_refused_for_irrational(self, capsys):
        code, _, err = run_cli(capsys, "spectra", "--family", "cycle,5",
                               "--mode", "exact")
        assert code == 2 and "irrational" in err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "spectra", "--family", "petersen", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["P"] == [["1", "3", "6"], ["1", "1", "-2"], ["1", "-2", "1"]]
        assert data["Q"][1] == ["1", "5/3", "-8/3"]
        assert data["exit"] == 0


class TestPartition:
    def test_pair_partition_feasibility(self, capsys, pair_file):
        code, out, _ = run_cli(capsys, "partition", "--family", "petersen",
                               "--partition", pair_file, "--feasibility")
        assert code == 1
        assert "equitable: no" in out
        assert "vertex \"2'\" vs '1'" in out
        assert "C_4 (1 vs 0)" in out
        assert "trace profile <F,A_i>: (5, 1, 4)" in out
        assert "projection values <F,E_j>: (1, 2, 2)" in out
        assert "projection condition: PASS" in out
        assert "lloyd: skipped" in out

    def test_equitable_with_multiplicities(self, capsys, vertex_partition_file):
        code, out, _ = run_cli(capsys, "partition", "--family", "petersen",
                               "--partition", vertex_partition_file,
                               "--feasibility", "--multiplicities")
        assert code == 0
        assert "equitable: yes" in out
        assert "quotient N_1:" in out
        assert "subduced multiplicities dim(W_j H): (1, 1, 1)" in out
        assert "multiplicity identity: PASS" in out
        assert "lloyd: PASS" in out

    def test_invalid_partition(self, capsys, tmp_path):
        bad = tmp_path / "bad.cells"
        bad.write_text("0 1\n1 2\n")  # vertex 1 twice, others missing
        code, _, err = run_cli(capsys, "partition", "--family", "petersen",
                               "--partition", str(bad))
        assert code == 2

    def test_json_structure(self, capsys, vertex_partition_file):
        code, out, _ = run_cli(capsys, "partition", "--family", "petersen",
                               "--partition", vertex_partition_file,
                               "--feasibility", "--multiplicities", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["equitable"] is True
        assert data["quotient N_1"] == [["0", "3", "0"], ["1", "0", "2"],
                                        ["0", "1", "2"]]
        assert data["trace profile <F,A_i>"] == ["3", "2", "5"]
        assert data["projection values <F,E_j>"] == ["1", "1", "1"]
        assert data["subduced multiplicities dim(W_j H)"] == [1, 1, 1]
        assert data["exit"] == 0


class TestFloatLane:
    def test_cycle_partition_check(self, capsys, tmp_path):
        cells = tmp_path / "c5.cells"
        cells.write_text("0\n1 4\n2 3\n")
        code, out, _ = run_cli(capsys, "partition", "--family", "cycle,5",
                               "--partition", str(cells),
                               "--feasibility", "--multiplicities")
        assert code == 0
        assert "mode: float" in out
        assert "integrality tolerance: 1e-06" in out
        assert "subduced multiplicities dim(W_j H): (1, 1, 1)" in out
        assert "multiplicity identity: PASS" in out
        assert "lloyd: PASS" in out


class TestRelationFileInputs:
    def test_spectra_from_relation_file_matches_family(self, capsys, tmp_path,
                                                       petersen):
        from test_fileio import write_relation_file
        rel = tmp_path / "petersen.rel"
        write_relation_file(rel, petersen)
        _, from_file, _ = run_cli(capsys, "spectra", "--relations", str(rel),
                                  "--json")
        _, from_family, _ = run_cli(capsys, "spectra", "--family", "petersen",
                                    "--json")
        file_data, family_data = json.loads(from_file), json.loads(from_family)
        for key in ("P", "Q", "multiplicities", "mode"):
            assert file_data[key] == family_data[key]

    def test_non_scheme_relation_file(self, capsys, tmp_path):
        # triangle split into directed halves: fails the symmetry axiom
        rel = tmp_path / "bad.rel"
        rel.write_text("3 2\n100\n010\n001\n\n010\n001\n100\n\n001\n100\n010\n")
        code, out, _ = run_cli(capsys, "verify", "--relations", str(rel))
        assert code == 1
        assert "violated axiom: 3" in out


class TestNotDistanceRegularInput:
    @pytest.mark.parametrize("command, extra", [
        ("spectra", []),
        ("partition", ["--partition", "path.cells"]),
        ("automorphism", ["--permutation", "path.perm"]),
        ("search", ["--sizes", "1"]),
    ])
    def test_exit_2_with_message(self, capsys, tmp_path, monkeypatch,
                                 command, extra):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "path.edges").write_text("a b\nb c\nc d\n")
        (tmp_path / "path.cells").write_text("a b c d\n")
        (tmp_path / "path.perm").write_text("a b c d\n")
        code, out, err = run_cli(capsys, command, "--edges", "path.edges",
                                 "--drg", *extra)
        assert (code, out) == (2, "")
        assert err == ("error: graph is not distance-regular: axiom 4 fails "
                       "(A_1 A_1 is not constant on the support of A_0: "
                       "entry (1,1) is 2, expected 1)\n")


class TestSizeCap:
    def test_family_refused_before_building(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("graph built before the size cap was checked")

        monkeypatch.setattr(itertools, "combinations", never)
        code, out, err = run_cli(capsys, "verify", "--family", "johnson,24,6")
        assert code == 2 and out == ""
        assert "134596 vertices exceeds the size cap 512" in err

    @pytest.mark.parametrize("command", ["verify", "spectra"])
    def test_relation_file_capped(self, capsys, tmp_path, k4, command):
        from test_fileio import write_relation_file
        rel = tmp_path / "k4.rel"
        write_relation_file(rel, k4)
        code, out, err = run_cli(capsys, command, "--relations", str(rel),
                                 "--max-vertices", "3")
        assert code == 2 and out == ""
        assert "4 vertices exceeds the size cap 3" in err
        assert run_cli(capsys, command, "--relations", str(rel),
                       "--max-vertices", "4")[0] == 0


class TestInternalErrorExitCode:
    def test_internal_inconsistency_maps_to_exit_3(self, capsys, monkeypatch):
        import schemelab.cli as cli_module

        def explode(*args, **kwargs):
            raise sl.InternalConsistencyError("forced for the exit-code test")

        monkeypatch.setattr(cli_module.spectra, "spectral_data", explode)
        code, _, err = run_cli(capsys, "spectra", "--family", "petersen")
        assert code == 3
        assert "internal inconsistency" in err


class TestAutomorphism:
    def write_identity(self, tmp_path, petersen):
        path = tmp_path / "id.perm"
        path.write_text("\n".join(f"{lab} {lab}" for lab in petersen.labels))
        return str(path)

    def write_rotation(self, tmp_path):
        path = tmp_path / "rot.perm"
        lines = [f"{i} {(i + 1) % 5}" for i in range(5)]
        lines += [f"{i}' {(i + 1) % 5}'" for i in range(5)]
        path.write_text("\n".join(lines))
        return str(path)

    def test_identity(self, capsys, tmp_path, petersen):
        code, out, _ = run_cli(capsys, "automorphism", "--family", "petersen",
                               "--permutation", self.write_identity(tmp_path, petersen))
        assert code == 0
        assert "values <P,E_j>: (1, 5, 4)" in out
        assert "higman condition: PASS" in out

    def test_rotation(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "automorphism", "--family", "petersen",
                               "--permutation", self.write_rotation(tmp_path))
        assert code == 0
        assert "alpha (fixed-relation counts): (0, 5, 5)" in out
        assert "values <P,E_j>: (1, 0, -1)" in out

    def test_transposition_rejected(self, capsys, tmp_path, petersen):
        path = tmp_path / "swap.perm"
        images = list(petersen.labels)
        images[0], images[1] = images[1], images[0]
        path.write_text(" ".join(images) + "\n")
        code, out, _ = run_cli(capsys, "automorphism", "--family", "petersen",
                               "--permutation", str(path))
        assert code == 1
        assert "automorphism: no" in out
        assert "condition not evaluated" in out

    def test_not_a_permutation(self, capsys, tmp_path):
        path = tmp_path / "bad.perm"
        path.write_text("0 1\n")
        code, _, err = run_cli(capsys, "automorphism", "--family", "petersen",
                               "--permutation", str(path))
        assert code == 2


class TestSearch:
    def test_singletons(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--family", "petersen",
                               "--relation", "1", "--sizes", "1..1")
        assert code == 0
        assert "tested: 10" in out
        assert "completely regular found: 10" in out
        assert "exhaustive: yes" in out

    def test_pairs_include_edges(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--family", "petersen",
                               "--sizes", "2..2")
        assert code == 0
        assert "completely regular found: 15" in out

    def test_zero_budget(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--family", "petersen",
                               "--sizes", "1..2", "--budget", "0")
        assert code == 0
        assert "tested: 0" in out
        assert "exhaustive: no" in out

    def test_results_file(self, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        code, out, _ = run_cli(capsys, "search", "--family", "petersen",
                               "--sizes", "1..1", "--feasibility",
                               "--out", str(out_path))
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["tested"] == 10 and data["exhaustive"] is True
        first = data["records"][0]
        assert first["vertices"] == ["0"]
        assert first["completely_regular"] is True
        assert first["quotients"][1] == [["0", "3", "0"], ["1", "0", "2"],
                                         ["0", "1", "2"]]
        assert first["projection_values"] == ["1", "1", "1"]

    def test_bad_sizes(self, capsys):
        code, _, err = run_cli(capsys, "search", "--family", "petersen",
                               "--sizes", "x..y")
        assert code == 2

    def test_dedup_warns_on_stderr_only(self, capsys):
        base = ("search", "--family", "petersen", "--relation", "1",
                "--sizes", "4")
        code, out, err = run_cli(capsys, *base)
        assert code == 0 and err == ""
        assert "completely regular found: 20" in out
        code, out, err = run_cli(capsys, *base, "--dedup")
        # one signature class mixes regular and other codes: 19 are missed
        assert code == 0 and "completely regular found: 1\n" in out
        assert err.count("\n") == 1
        assert "--dedup" in err and "signature class can mix" in err

    def test_workers_deprecation_note_on_stderr_only(self, capsys):
        base = ("search", "--family", "petersen", "--sizes", "1..2")
        code, out, err = run_cli(capsys, *base)
        assert code == 0 and err == ""
        for workers in ("1", "4"):
            got_code, got_out, got_err = run_cli(capsys, *base,
                                                 "--workers", workers)
            assert got_code == code
            assert got_out == out.replace(
                "command: " + " ".join(base),
                "command: " + " ".join(base + ("--workers", workers)))
            assert got_err.count("\n") == 1
            assert "--workers is deprecated" in got_err

    def test_disconnected_relation_graph(self, capsys):
        # distance-2 in the 4-cycle scheme is a perfect matching
        code, _, err = run_cli(capsys, "search", "--family", "cycle,4",
                               "--relation", "2", "--sizes", "1..1")
        assert code == 2 and "disconnected" in err


class TestDeterminism:
    COMMANDS = [
        ("spectra", "--family", "petersen"),
        ("spectra", "--family", "cycle,5"),
        ("search", "--family", "petersen", "--sizes", "1..2"),
    ]

    def test_repeat_runs_identical(self, capsys):
        for argv in self.COMMANDS:
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second

    def test_partition_repeat(self, capsys, pair_file):
        argv = ("partition", "--family", "petersen", "--partition", pair_file,
                "--feasibility", "--json")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_search_workers_identical(self, capsys):
        base = ("search", "--family", "petersen", "--sizes", "1..2")
        serial = run_cli(capsys, *base, "--workers", "1")
        threaded = run_cli(capsys, *base, "--workers", "4")
        # worker flag appears in the command echo; strip both before comparing
        strip = lambda text: "\n".join(ln for ln in text.splitlines()
                                       if not ln.startswith("command:"))
        assert strip(serial[1]) == strip(threaded[1])
        assert serial[0] == threaded[0]

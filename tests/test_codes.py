import itertools

import pytest

import schemelab as sl
from schemelab.cli import main
from schemelab.ratmat import RationalMatrix


class TestIsCompletelyRegular:
    def test_single_vertex(self, petersen):
        for label in petersen.labels:
            rec = sl.is_completely_regular(petersen, 1, [label])
            assert rec.completely_regular
            assert rec.partition.cell_sizes == (1, 3, 6)
            assert rec.covering_radius == 2

    def test_edge(self, petersen):
        rec = sl.is_completely_regular(petersen, 1, ["0", "0'"])
        assert rec.completely_regular
        assert rec.partition.cell_sizes == (2, 4, 4)
        assert rec.equitability.quotients[1] == \
            RationalMatrix([[1, 2, 0], [1, 0, 2], [0, 2, 1]])

    def test_whole_vertex_set(self, petersen):
        rec = sl.is_completely_regular(petersen, 1, petersen.labels)
        assert rec.completely_regular
        assert rec.covering_radius == 0
        assert rec.partition.t == 1

    def test_feasibility_attachment(self, petersen, petersen_spec):
        rec = sl.is_completely_regular(petersen, 1, ["0"], spec=petersen_spec,
                                       include_feasibility=True)
        assert rec.feasibility is not None
        assert rec.feasibility.godsil.all_pass
        with pytest.raises(sl.InputError):
            sl.is_completely_regular(petersen, 1, ["0"],
                                     include_feasibility=True)


class TestSearch:
    def test_all_singletons_found(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (1, 1))
        assert result.tested == 10 and result.exhaustive
        assert all(r.completely_regular for r in result.records)

    def test_size_two_classifies_edges(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (2, 2))
        assert result.tested == 45
        edges = {frozenset((a, b)) for a, b in sl.petersen_graph().edges}
        found = {frozenset(r.vertices) for r in result.records
                 if r.completely_regular}
        assert found == edges
        assert len(found) == 15

    def test_budget(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (1, 2), budget=5)
        assert result.tested == 5 and not result.exhaustive
        zero = sl.search_completely_regular(petersen, 1, (1, 2), budget=0)
        assert zero.tested == 0 and not zero.exhaustive

    def test_enumeration_order_lexicographic(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (1, 2), budget=13)
        subsets = [r.vertices for r in result.records]
        expected = [(x,) for x in range(10)] + [(0, 1), (0, 2), (0, 3)]
        assert subsets == expected

    def test_budget_boundary(self, petersen):
        # sizes 1..2 on the Petersen graph give 10 + 45 = 55 candidates
        full = sl.search_completely_regular(petersen, 1, (1, 2))
        at = sl.search_completely_regular(petersen, 1, (1, 2), budget=55)
        assert (at.tested, at.exhaustive) == (55, True)
        below = sl.search_completely_regular(petersen, 1, (1, 2), budget=54)
        assert (below.tested, below.exhaustive) == (54, False)
        assert [(r.vertices, r.completely_regular) for r in below.records] == \
            [(r.vertices, r.completely_regular) for r in full.records[:54]]

    def test_accepted_codes_reconfirmed_independently(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (1, 2))
        for rec in result.records:
            again = sl.is_completely_regular(petersen, 1, rec.vertices)
            assert again.completely_regular == rec.completely_regular

    def test_found_codes_satisfy_feasibility(self, petersen, petersen_spec):
        result = sl.search_completely_regular(petersen, 1, (2, 2))
        for rec in result.records:
            if not rec.completely_regular:
                continue
            check = sl.verify_equitable_multiplicities(
                petersen, petersen_spec, rec.partition, rec.equitability)
            assert check.ok
            assert sl.lloyd_check(petersen, rec.partition,
                                  rec.equitability).all_pass

    def test_worker_count_does_not_change_output(self, petersen):
        serial = sl.search_completely_regular(petersen, 1, (1, 2))
        threaded = sl.search_completely_regular(petersen, 1, (1, 2), workers=4)
        assert [r.vertices for r in serial.records] == \
            [r.vertices for r in threaded.records]
        assert [r.completely_regular for r in serial.records] == \
            [r.completely_regular for r in threaded.records]

    def test_workers_is_deprecated(self, petersen, recwarn):
        sl.search_completely_regular(petersen, 1, (1, 1), workers=1)
        assert not recwarn.list
        with pytest.warns(DeprecationWarning, match="workers"):
            sl.search_completely_regular(petersen, 1, (1, 1), workers=2)

    def test_signature_dedup(self, petersen):
        result = sl.search_completely_regular(petersen, 1, (1, 1),
                                              dedup_by_signature=True)
        assert result.tested == 1
        assert result.skipped_duplicates == 9

    def test_invalid_sizes(self, petersen):
        with pytest.raises(sl.InputError):
            sl.search_completely_regular(petersen, 1, (0, 2))
        with pytest.raises(sl.InputError):
            sl.search_completely_regular(petersen, 1, (3, 2))
        with pytest.raises(sl.InputError):
            sl.search_completely_regular(petersen, 1, (1, 11))

    def test_hamming_singletons(self, hamming32):
        result = sl.search_completely_regular(hamming32, 1, (1, 1))
        assert all(r.completely_regular for r in result.records)
        assert {r.partition.cell_sizes for r in result.records} == \
            {(1, 3, 3, 1)}

    def test_hamming_pairs_against_independent_oracle(self, hamming32):
        # rebuild the cube from scratch and classify pairs by raw counting
        words = list(itertools.product(range(2), repeat=3))

        def hdist(a, b):
            return sum(x != y for x, y in zip(words[a], words[b]))

        def oracle_cr(code):
            layer_of = [min(hdist(x, c) for c in code) for x in range(8)]
            layers = [[x for x in range(8) if layer_of[x] == k]
                      for k in range(max(layer_of) + 1)]
            for layer in layers:
                profiles = {tuple(sum(1 for y in lay if hdist(x, y) == t)
                                  for lay in layers for t in range(4))
                            for x in layer}
                if len(profiles) != 1:
                    return False
            return True

        result = sl.search_completely_regular(hamming32, 1, (2, 2))
        assert result.tested == 28
        for rec in result.records:
            assert rec.completely_regular == oracle_cr(rec.vertices), \
                rec.vertices
        found = sum(r.completely_regular for r in result.records)
        assert found == 16  # 12 edges plus 4 antipodal pairs


class TestSchemeLevelDefinition:
    def test_johnson73_relation2(self, capsys):
        # (V, R_2) of J(7,3) is srg(35,18,9,9), so every singleton is
        # completely regular in that graph. The verdict counts equitability
        # against every A_j, and A_2 does not generate the Bose-Mesner
        # algebra (column 2 of P has fewer than d + 1 distinct entries), so
        # the CLI reports no singleton as completely regular.
        code = main(["search", "--family", "johnson,7,3", "--relation", "2",
                     "--sizes", "1..1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tested: 35\n" in out
        assert "completely regular found: 0\n" in out
        s = sl.named_scheme("johnson", 7, 3)
        p = sl.spectral_data(s).p_matrix
        assert len({row[1] for row in p}) == s.d + 1
        assert len({row[2] for row in p}) < s.d + 1
        rel = s.relation_of
        for x in range(s.v):
            # distance partition of {x} in (V, R_2), by a test-local BFS
            dist = [-1] * s.v
            dist[x] = 0
            frontier = [x]
            while frontier:
                level = dist[frontier[0]] + 1
                frontier = [z for z in range(s.v) if dist[z] < 0
                            and any(rel[y][z] == 2 for y in frontier)]
                for z in frontier:
                    dist[z] = level
            cells = [[y for y in range(s.v) if dist[y] == k]
                     for k in range(max(dist) + 1)]
            assert [len(c) for c in cells] == [1, 18, 16]
            for cell in cells:
                profiles = {tuple(sum(rel[y][z] == 2 for z in other)
                                  for other in cells) for y in cell}
                assert len(profiles) == 1, (x, cell)

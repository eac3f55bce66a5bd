"""Generators used by the randomized suites stay valid and reproducible."""
import random

from sampling import (invariant_corpus, random_finite_group, random_group,
                      random_matrix, random_one_ideal_graph, random_valid_invariant)

from kclass.graphalg import hereditary_saturated_sets
from kclass.sixterm import validate_sixterm


def test_random_matrix_respects_bounds():
    rng = random.Random(0)
    M = random_matrix(rng, 4, 3)
    assert M.rows == 4 and M.cols == 3
    assert all(-9 <= M[i, j] <= 9 for i in range(4) for j in range(3))


def test_random_groups_are_canonical():
    rng = random.Random(1)
    for _ in range(50):
        G = random_group(rng)
        assert G.free_rank <= 2
        for a, b in zip(G.torsion, G.torsion[1:]):
            assert b % a == 0
        assert random_finite_group(rng).is_finite()


def test_random_one_ideal_graph_contract():
    rng = random.Random(2)
    for _ in range(25):
        g = random_one_ideal_graph(rng)
        assert 2 <= g.n <= 6
        proper = [d for d in hereditary_saturated_sets(g) if d.nontrivial]
        assert len(proper) == 1


def test_random_invariants_are_exact():
    rng = random.Random(3)
    for _ in range(40):
        assert validate_sixterm(random_valid_invariant(rng)) == []


def test_corpus_is_reproducible():
    first = invariant_corpus(9, 12)
    second = invariant_corpus(9, 12)
    assert first == second
    assert len(first) == 12
    assert invariant_corpus(10, 12) != first

"""Graph K-theory, ideal lattices, and graph comparisons."""
import itertools
import random
from collections import Counter

import pytest

from oracles import (af_path_counts_bruteforce, classify_simple_bruteforce,
                     hereditary_saturated_sets_bruteforce)
from sampling import random_one_ideal_graph

import kclass.graphalg

from kclass.graphalg import (
    DirectedGraph, evaluate_subset, hereditary_saturated_sets,
    classify_simple, subgraph, GraphKTheory,
    one_ideal_invariant, one_ideal_parts,
    NOT_SIMPLE, AF, PURELY_INFINITE,
)
from kclass.groups import FgAbelianGroup
from kclass.matrix import IntMatrix
from kclass.sixterm import decide_iso_one_ideal, validate_sixterm, verify_witness


def test_graph_validation():
    with pytest.raises(ValueError):
        DirectedGraph(["a", "a"], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        DirectedGraph(["a"], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        DirectedGraph(["a"], [[-1]])


def test_json_round_trip():
    g = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    back = DirectedGraph.from_json(g.to_json())
    assert back.vertices == g.vertices
    assert back.adjacency.to_lists() == g.adjacency.to_lists()


def test_ktheory_single_vertex_three_loops():
    kt = GraphKTheory(DirectedGraph(["v"], [[3]]), af=False)
    assert kt.k0 == FgAbelianGroup(0, (2,))
    assert kt.k1.is_trivial()
    assert kt.vertex_classes([1]) == (1,)


def test_ktheory_single_vertex_two_loops():
    kt = GraphKTheory(DirectedGraph(["v"], [[2]]), af=False)
    assert kt.k0.is_trivial()
    assert kt.k1.is_trivial()


def test_ktheory_two_sinks():
    kt = GraphKTheory(DirectedGraph(["a", "b"], [[0, 0], [0, 0]]), af=False)
    assert kt.k0 == FgAbelianGroup(2, ())
    assert kt.k1.is_trivial()
    assert kt.vertex_classes.matrix.to_lists() == [[1, 0], [0, 1]]


def test_ktheory_k1_can_be_nonzero():
    # transposed adjacency minus identity is singular here
    kt = GraphKTheory(DirectedGraph(["a", "b"], [[2, 1], [2, 3]]), af=False)
    assert kt.k0 == FgAbelianGroup(1, ())
    assert kt.k1 == FgAbelianGroup(1, ())


def test_k1_is_torsion_free():
    # kernels of integer matrices never carry torsion
    import random
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 5)
        adj = [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
        kt = GraphKTheory(DirectedGraph([f"v{i}" for i in range(n)], adj), af=False)
        assert kt.k1.torsion == ()


def test_hereditary_saturated_enumeration():
    g = DirectedGraph(["v", "w"], [[1, 1], [0, 3]])
    sets = hereditary_saturated_sets(g)
    assert [d.vertices for d in sets] == [(), ("w",), ("v", "w")]
    assert [d.vertices for d in sets if d.nontrivial] == [("w",)]


def test_saturation_failure_is_flagged():
    # v emits only into {w}, so the subset is hereditary but not saturated
    g = DirectedGraph(["v", "w"], [[0, 1], [0, 1]])
    d = evaluate_subset(g, ["w"])
    assert d.hereditary and not d.saturated


def test_hereditary_failure_is_flagged():
    g = DirectedGraph(["v", "w"], [[1, 1], [0, 3]])
    d = evaluate_subset(g, ["v"])
    assert not d.hereditary


def _random_graph(rng, n):
    density = rng.choice((0.0, 0.1, 0.25, 0.5, 0.8))
    adj = [[rng.randint(1, 3) if rng.random() < density else 0
            for _ in range(n)] for _ in range(n)]
    return DirectedGraph([f"v{i}" for i in range(n)], adj)


def test_lattice_matches_bruteforce_on_random_graphs():
    rng = random.Random(2002)
    seen = {"sink": 0, "loop": 0, "parallel": 0, "edgeless": 0}
    for _ in range(600):
        g = _random_graph(rng, rng.randint(0, 10))
        assert hereditary_saturated_sets(g) == hereditary_saturated_sets_bruteforce(g)
        rows = g.adjacency.data
        seen["sink"] += any(not any(r) for r in rows)
        seen["loop"] += any(r[i] for i, r in enumerate(rows))
        seen["parallel"] += any(m > 1 for r in rows for m in r)
        seen["edgeless"] += not any(map(any, rows))
    assert min(seen.values()) >= 20


def test_lattice_matches_bruteforce_on_sampled_graphs(monkeypatch):
    # every candidate the rejection sampler draws, accepted or not
    checked = []

    def checked_sets(g):
        sets = hereditary_saturated_sets(g)
        assert sets == hereditary_saturated_sets_bruteforce(g)
        checked.append(g.n)
        return sets

    monkeypatch.setattr(kclass.graphalg, "hereditary_saturated_sets", checked_sets)
    rng = random.Random(5)
    for max_vertices in (6, 10):
        for _ in range(40):
            random_one_ideal_graph(rng, max_vertices=max_vertices)
    assert len(checked) >= 200 and max(checked) == 10


def test_enumeration_guard():
    n = 21
    g = DirectedGraph([f"v{i}" for i in range(n)], IntMatrix.zeros(n, n))
    with pytest.raises(ValueError):
        hereditary_saturated_sets(g)


def test_classify_simple():
    assert classify_simple(DirectedGraph(["v"], [[1]])) == NOT_SIMPLE
    assert classify_simple(DirectedGraph(["v"], [[2]])) == PURELY_INFINITE
    assert classify_simple(DirectedGraph(["v"], [[0]])) == AF
    # a sink pair is disconnected, hence not simple
    assert classify_simple(DirectedGraph(["a", "b"], [[0, 0], [0, 0]])) == NOT_SIMPLE
    # 2-cycle without exits: not simple despite trivial ideal lattice
    assert classify_simple(DirectedGraph(["a", "b"], [[0, 1], [1, 0]])) == NOT_SIMPLE
    # strongly connected with parallel edges: purely infinite
    assert classify_simple(DirectedGraph(["a", "b"], [[0, 2], [1, 0]])) == PURELY_INFINITE


def test_classify_and_af_counts_match_bruteforce_on_random_graphs(monkeypatch):
    # half the graphs keep only the edges that go up a random vertex
    # ranking, so they have no cycles; classify_simple reads vertex
    # closures and never the ideal lattice
    def no_lattice(g):
        raise AssertionError("classify_simple built the ideal lattice")
    monkeypatch.setattr(kclass.graphalg, "hereditary_saturated_sets", no_lattice)
    rng = random.Random(2006)
    seen = dict.fromkeys(("sink", "loop", "parallel", "edgeless", "acyclic",
                          AF, PURELY_INFINITE, NOT_SIMPLE), 0)
    for _ in range(700):
        n = rng.randint(1, 8)
        g = _random_graph(rng, n)
        acyclic = rng.random() < 0.5
        if acyclic:
            rank = rng.sample(range(n), n)
            g = DirectedGraph(g.vertices, [[m if rank[i] < rank[j] else 0
                                            for j, m in enumerate(r)]
                                           for i, r in enumerate(g.adjacency.data)])
        kind = classify_simple(g)
        assert kind == classify_simple_bruteforce(g)
        rows = g.adjacency.data
        if acyclic:
            af = GraphKTheory(g, af=True)
            assert af.vertex_classes.matrix.to_lists() == af_path_counts_bruteforce(g)
            # no cycle: the factored kernel is zero, as the af side assumes
            assert af.k1.is_trivial() and GraphKTheory(g, af=False).k1.is_trivial()
        seen[kind] += 1
        seen["acyclic"] += acyclic
        seen["sink"] += any(not any(r) for r in rows)
        seen["loop"] += any(r[i] for i, r in enumerate(rows))
        seen["parallel"] += any(m > 1 for r in rows for m in r)
        seen["edgeless"] += not any(map(any, rows))
    assert min(seen.values()) >= 20


def test_no_one_ideal_graph_has_an_af_quotient():
    # an acyclic quotient would have a sink, a sink of the whole graph
    # whose closure is a second nontrivial hereditary saturated set; every
    # 0/1 graph on 2 or 3 vertices, a seeded eighth of those on 4, and
    # sampled one-ideal graphs
    rng = random.Random(2006)
    graphs = [DirectedGraph(list(range(n)), [list(bits[i * n:(i + 1) * n]) for i in range(n)])
              for n in (2, 3, 4) for bits in itertools.product((0, 1), repeat=n * n)
              if n < 4 or rng.random() < 0.125]
    graphs += [random_one_ideal_graph(rng, max_vertices=m)
               for m in (4, 6, 8) for _ in range(100)]
    kinds = Counter()
    for g in graphs:
        try:
            _, _, kind_b, _, kind_a = one_ideal_parts(g)
        except ValueError:
            continue
        kinds[kind_b, kind_a] += 1
    assert set(kinds) == {(AF, PURELY_INFINITE), (PURELY_INFINITE, PURELY_INFINITE)}
    assert min(kinds.values()) >= 200, kinds


def test_subgraph_and_quotient():
    g = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    s = subgraph(g, ["w"])
    assert s.vertices == ["w"] and s.adjacency.to_lists() == [[3]]
    q = subgraph(g, ["v"])
    assert q.vertices == ["v"] and q.adjacency.to_lists() == [[2]]
    hset, ideal, kind_b, quot, kind_a = one_ideal_parts(g)
    assert hset == ("w",) and (kind_b, kind_a) == (PURELY_INFINITE, PURELY_INFINITE)
    assert ideal.to_json() == s.to_json() and quot.to_json() == q.to_json()


def test_one_ideal_invariant_worked_example():
    g = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    inv = one_ideal_invariant(g)
    assert inv.groups["K0B"] == FgAbelianGroup(0, (2,))
    assert inv.groups["K0E"] == FgAbelianGroup(0, (2,))
    assert inv.groups["K0A"].is_trivial()
    assert all(inv.groups[n].is_trivial() for n in ("K1A", "K1E", "K1B"))
    # K0A = 0 forces the inclusion to be an isomorphism
    assert inv.maps["K0B->K0E"].is_isomorphism()
    assert inv.cones["K0B"].tag == "all_positive"
    assert validate_sixterm(inv) == []


def test_one_ideal_invariant_af_ideal():
    # sink ideal with purely infinite quotient: the K0 row is an index-3
    # extension of Z/3 by Z
    g = DirectedGraph(["v", "w"], [[4, 1], [0, 0]])
    inv = one_ideal_invariant(g)
    assert inv.groups["K0B"] == FgAbelianGroup(1, ())
    assert inv.groups["K0E"] == FgAbelianGroup(1, ())
    assert inv.groups["K0A"] == FgAbelianGroup(0, (3,))
    assert inv.cones["K0B"].tag == "standard_free"
    assert inv.cones["K0A"].tag == "all_positive"


def test_one_ideal_invariant_errors():
    with pytest.raises(ValueError):
        one_ideal_invariant(DirectedGraph(["a", "b"], [[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        # quotient is a single loop, which does not classify
        one_ideal_invariant(DirectedGraph(["v", "w"], [[1, 1], [0, 3]]))


def test_one_ideal_invariant_nonzero_k1():
    g = DirectedGraph(["q1", "q2", "w"], [[2, 1, 0], [2, 3, 1], [0, 0, 3]])
    inv = one_ideal_invariant(g)
    assert inv.groups["K1A"] == FgAbelianGroup(1, ())
    assert inv.groups["K1E"] == FgAbelianGroup(1, ())
    assert inv.groups["K1B"].is_trivial()
    assert not inv.maps["K1A->K0B"].is_zero()
    assert validate_sixterm(inv) == []


def compare_graphs(g1, g2):
    """Stable isomorphism of two one-ideal graph algebras, decided on
    their six-term invariants."""
    return decide_iso_one_ideal(one_ideal_invariant(g1), one_ideal_invariant(g2))


def test_compare_graphs_reflexive():
    g = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    v = compare_graphs(g, g)
    assert v.status == "isomorphic"


def test_compare_graphs_distinct_ideal_torsion():
    g3 = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    g4 = DirectedGraph(["v", "w"], [[2, 1], [0, 4]])
    v = compare_graphs(g3, g4)
    assert v.status == "not_isomorphic"
    assert "K0B" in v.certificate


def test_compare_graphs_extension_family():
    # ideal a sink, quotient four loops: the connecting edge count picks
    # the class of the K0 extension of Z/3 by Z
    def gk(k):
        return DirectedGraph(["v", "w"], [[4, k], [0, 0]])
    inv1 = one_ideal_invariant(gk(1))
    inv2 = one_ideal_invariant(gk(2))
    v12 = compare_graphs(gk(1), gk(2))
    assert v12.status == "isomorphic"
    assert verify_witness(inv1, inv2, v12.witness)
    assert compare_graphs(gk(1), gk(3)).status == "not_isomorphic"
    assert compare_graphs(gk(2), gk(3)).status == "not_isomorphic"


def test_compare_graphs_permuted_copy():
    g = DirectedGraph(["q1", "q2", "w"], [[2, 1, 2], [2, 3, 1], [0, 0, 3]])
    perm = DirectedGraph(["w", "q2", "q1"], [[3, 0, 0], [1, 3, 2], [2, 1, 2]])
    v = compare_graphs(g, perm)
    assert v.status == "isomorphic"
    assert verify_witness(one_ideal_invariant(g), one_ideal_invariant(perm),
                          v.witness)


def test_relabeling_does_not_change_the_invariant():
    g = DirectedGraph(["v", "w"], [[2, 1], [0, 3]])
    h = DirectedGraph(["x", "y"], g.adjacency)
    assert h.vertices == ["x", "y"]
    assert one_ideal_invariant(g) == one_ideal_invariant(h)


def out_split(g: DirectedGraph, v: int, parts: int, rng: random.Random) -> DirectedGraph:
    """Out-split vertex v: its emitted edges go, in ``parts`` nonempty
    groups, to the copies of v, and every edge into v is copied to each
    copy (Bates and Pask 2004)."""
    edges = [w for w in range(g.n) for _ in range(g.adjacency[v, w])]
    rng.shuffle(edges)
    groups = [[0] * g.n for _ in range(parts)]
    for k, w in enumerate(edges):
        groups[k if k < parts else rng.randrange(parts)][w] += 1
    keep = [i for i in range(g.n) if i != v]

    def row(counts):
        return [counts[j] for j in keep] + [counts[v]] * parts
    adj = [row(g.adjacency.row(i)) for i in keep] + [row(c) for c in groups]
    names = [g.vertices[i] for i in keep] + [f"{g.vertices[v]}.{i}" for i in range(parts)]
    return DirectedGraph(names, IntMatrix(adj))


def transpose(g: DirectedGraph) -> DirectedGraph:
    return DirectedGraph(g.vertices, [list(g.adjacency.column(j)) for j in range(g.n)])


def random_move(g: DirectedGraph, rng: random.Random) -> DirectedGraph:
    """Out-split a vertex emitting >= 2 edges, or in-split (an out-split
    of the transpose) a vertex receiving >= 2 edges that also emits one:
    in-splitting at a sink changes the ideal lattice."""
    emits = [sum(g.adjacency.row(i)) for i in range(g.n)]
    receives = [sum(g.adjacency.column(i)) for i in range(g.n)]
    moves = [(False, v, emits[v]) for v in range(g.n) if emits[v] >= 2]
    moves += [(True, v, receives[v]) for v in range(g.n) if receives[v] >= 2 and emits[v]]
    if not moves:
        return g
    inward, v, edges = rng.choice(moves)
    parts = rng.randint(2, min(3, edges))
    if inward:
        return transpose(out_split(transpose(g), v, parts, rng))
    return out_split(g, v, parts, rng)


def test_graph_moves_keep_the_invariant():
    # out-splitting gives an isomorphic graph algebra and in-splitting a
    # Morita equivalent one, so graph compare must never tell them apart
    rng = random.Random(2004)
    unknown = []
    for k in range(60):
        g = random_one_ideal_graph(rng, max_vertices=5 if k % 2 else 7)
        h = g
        for _ in range(rng.randint(1, 3)):
            h = random_move(h, rng)
        inv1, inv2 = one_ideal_invariant(g), one_ideal_invariant(h)
        v = decide_iso_one_ideal(inv1, inv2)
        assert v.status != "not_isomorphic", (g, h, v.certificate)
        if v.status == "isomorphic":
            assert verify_witness(inv1, inv2, v.witness), (g, h)
        else:
            unknown.append((g, h, v.reason))
    assert unknown == []

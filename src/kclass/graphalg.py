"""K-theory of finite directed graphs and their one-ideal invariants.

A graph stands for the algebra generated by its vertex projections and
edge isometries.  K0 is the cokernel and K1 the kernel of the transposed
adjacency matrix minus the identity, with columns restricted to the
vertices that emit at least one edge.  Ideals correspond to hereditary
saturated vertex sets; a graph with exactly one nontrivial such set
yields a six-term invariant whose cones reflect the ideal and quotient
types (coordinatewise for the approximately finite case, the whole
group for the purely infinite one).
"""
from __future__ import annotations

from dataclasses import dataclass

from .matrix import IntMatrix, identity_rows
from .groups import FgAbelianGroup, GroupHom, cokernel
from .sixterm import (SixTermInvariant, all_positive_cone, standard_free_cone,
                      unordered_cone)

NOT_SIMPLE = "not_simple"
AF = "af"
PURELY_INFINITE = "purely_infinite"
UNSUPPORTED = "unsupported"

MAX_VERTICES = 20
MAX_IDEALS = 2**16


@dataclass(frozen=True, eq=False, repr=False)
class DirectedGraph:
    """Finite directed graph with parallel edges, compared by identity.

    ``adjacency[i, j]`` counts the edges from vertex i to vertex j.
    """

    vertices: list
    adjacency: IntMatrix

    def __post_init__(self):
        vertices = list(self.vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex labels must be distinct")
        adjacency = self.adjacency
        if not isinstance(adjacency, IntMatrix):
            adjacency = IntMatrix(adjacency)
        if adjacency.rows != adjacency.cols or adjacency.rows != len(vertices):
            raise ValueError("adjacency must be square of size len(vertices)")
        if not adjacency.is_nonnegative():
            raise ValueError("edge counts must be nonnegative")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "adjacency", adjacency)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def out_degree(self, i: int) -> int:
        return sum(self.adjacency.row(i))

    def is_regular(self, i: int) -> bool:
        """A vertex is regular when it emits at least one edge."""
        return self.out_degree(i) > 0

    def index_of(self, label) -> int:
        return self.vertices.index(label)

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices),
                "adjacency": self.adjacency.to_lists()}

    @classmethod
    def from_json(cls, data: dict) -> "DirectedGraph":
        # a string or an object would be read as its characters or keys
        if not isinstance(data["vertices"], list):
            raise TypeError("vertices must be a list")
        return cls(data["vertices"], IntMatrix(data["adjacency"]))

    def __repr__(self) -> str:
        return f"DirectedGraph({self.vertices!r}, {self.adjacency.to_lists()!r})"


@dataclass(frozen=True)
class IdealDatum:
    """A vertex subset with its ideal-defining properties."""

    vertices: tuple
    hereditary: bool
    saturated: bool
    nontrivial: bool


def evaluate_subset(g: DirectedGraph, subset) -> IdealDatum:
    """Hereditary and saturation flags for an arbitrary vertex subset."""
    idx = {g.index_of(v) for v in subset}
    rows = g.adjacency.data
    hereditary = all(m == 0 or j in idx
                     for i in idx for j, m in enumerate(rows[i]))
    saturated = not any(
        i not in idx and any(row)
        and all(m == 0 or j in idx for j, m in enumerate(row))
        for i, row in enumerate(rows))
    labels = tuple(sorted(subset, key=g.index_of))
    return IdealDatum(labels, hereditary, saturated,
                      0 < len(idx) < g.n)


def _saturate(regular: list[tuple[int, int]], mask: int) -> int:
    """Smallest saturated superset of a hereditary vertex bitmask.

    ``regular`` pairs each emitting vertex with its successor bitmask; a
    vertex outside the set joins it once all its edges land inside.
    """
    grown = True
    while grown:
        grown = False
        for i, succ in regular:
            if not mask >> i & 1 and succ & ~mask == 0:
                mask |= 1 << i
                grown = True
    return mask


def _reach(g: DirectedGraph) -> tuple[list[int], list[int]]:
    """Successor bitmask and T(v) bitmask of every vertex v, where T(v)
    is v together with every vertex a path from v reaches."""
    succ = [sum(1 << j for j, m in enumerate(row) if m)
            for row in g.adjacency.data]
    reach = []
    for v in range(g.n):
        seen, frontier = 1 << v, 1 << v
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = succ[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        reach.append(seen)
    return succ, reach


def hereditary_saturated_sets(g: DirectedGraph) -> list[IdealDatum]:
    """Every hereditary saturated vertex set, the trivial ones included.

    Every such set H is the union of the closures Sigma(T(v)) over its
    vertices v, where T(v) is everything v reaches and Sigma saturates
    (Bates, Hong, Raeburn, Szymanski 2002).  So the lattice is the
    closure of the n vertex closures under saturated unions, and the
    work follows its size rather than 2^n.  Sets come ordered by size,
    then by vertex indices, and each is checked by ``evaluate_subset``.
    """
    if g.n > MAX_VERTICES:
        raise ValueError(f"graphs with more than {MAX_VERTICES} vertices "
                         "are not enumerated")
    succ, reach = _reach(g)
    regular = [(i, s) for i, s in enumerate(succ) if s]
    closures = {_saturate(regular, t) for t in reach}
    lattice = {0}
    for c in closures:
        # a union of hereditary sets is hereditary: a join only saturates
        lattice |= {_saturate(regular, h | c) for h in lattice if c & ~h}
        if len(lattice) > MAX_IDEALS:
            raise ValueError(f"the ideal lattice has more than MAX_IDEALS={MAX_IDEALS} sets")
    indices = sorted((tuple(i for i in range(g.n) if h >> i & 1)
                      for h in lattice), key=lambda t: (len(t), t))
    out = []
    for t in indices:
        d = evaluate_subset(g, [g.vertices[i] for i in t])
        if not (d.hereditary and d.saturated):
            raise RuntimeError(f"vertex closure join {d.vertices!r} is not "
                               "hereditary and saturated")
        out.append(d)
    return out


def classify_simple(g: DirectedGraph) -> str:
    """Simplicity type of the graph algebra.

    not_simple when a nontrivial hereditary saturated set exists or some
    cycle has no exit; otherwise af without cycles and purely_infinite
    with them.  Every hereditary saturated set is the union of the
    closures Sigma(T(v)) of its vertices, so a nontrivial one exists
    exactly when some vertex closure is not the whole vertex set.  v
    lies on a cycle when a successor reaches it, and that cycle has no
    exit when every vertex of T(v) emits exactly one edge.
    """
    succ, reach = _reach(g)
    regular = [(i, s) for i, s in enumerate(succ) if s]
    if any(_saturate(regular, t) != (1 << g.n) - 1 for t in reach):
        return NOT_SIMPLE
    on_cycle = [v for v in range(g.n)
                if any(succ[v] >> w & 1 and reach[w] >> v & 1
                       for w in range(g.n))]
    emits_one = sum(1 << w for w in range(g.n) if g.out_degree(w) == 1)
    if any(reach[v] & ~emits_one == 0 for v in on_cycle):
        return NOT_SIMPLE
    return PURELY_INFINITE if on_cycle else AF


def subgraph(g: DirectedGraph, subset) -> DirectedGraph:
    """Induced graph on a vertex subset (internal edges only)."""
    idx = sorted(g.index_of(v) for v in subset)
    adj = [[g.adjacency[i, j] for j in idx] for i in idx]
    return DirectedGraph([g.vertices[i] for i in idx],
                         IntMatrix(adj) if idx else IntMatrix.zeros(0, 0))


def _pad(vec, idx, n: int) -> list[int]:
    """The vector of length n with vec[c] at position idx[c], 0 elsewhere."""
    out = [0] * n
    for x, i in zip(vec, idx):
        out[i] = x
    return out


class GraphKTheory:
    """K-groups of a graph from M, the transposed adjacency minus the
    identity on the emitting columns (listed in ``regular``).

    ``vertex_classes`` maps Z^vertices onto K0, the cokernel of M as a
    map Z^regular -> Z^vertices, and ``lift`` sends a K0 element to a
    vertex vector of its class.  K1 is the integer kernel of M, that
    map's kernel span, and ``cycles`` maps it into Z^regular, one basis
    vector per column.  A side with ``af`` set must have no cycle, and
    then nothing is factored.  Its adjacency A is nilpotent, so A^T - I
    is unimodular and M, a set of its columns, is injective: K1 is 0.
    K0 is read in path-count coordinates, free on the sinks, and the
    path-count column of a sink is its own unit vector.
    """

    def __init__(self, graph: DirectedGraph, af: bool):
        self.regular = [i for i in range(graph.n) if graph.is_regular(i)]
        cols = []
        for v in self.regular:
            col = list(graph.adjacency.row(v))
            col[v] -= 1
            cols.append(col)
        self.matrix = IntMatrix.from_columns(cols, rows=graph.n)
        vertices = FgAbelianGroup(graph.n)
        if af:
            basis = []
            # path-count coordinates: K0 is free on the sinks, and a
            # successor reaches fewer vertices, so its counts come first
            sinks = [i for i in range(graph.n) if not graph.is_regular(i)]
            _, reach = _reach(graph)
            counts = {}
            for v in sorted(range(graph.n), key=lambda v: reach[v].bit_count()):
                vec = [int(v == s) for s in sinks]
                for w in range(graph.n):
                    m = graph.adjacency[v, w]
                    if m:
                        vec = [a + m * b for a, b in zip(vec, counts[w])]
                counts[v] = vec
            self.vertex_classes = GroupHom.from_images(
                vertices, FgAbelianGroup(len(sinks)), [counts[v] for v in range(graph.n)])
            self.lift = lambda x: _pad(x, sinks, graph.n)
        else:
            f = GroupHom(FgAbelianGroup(len(self.regular)), vertices, self.matrix)
            basis = f.kernel_span
            _, self.vertex_classes = cokernel(f)
            self.lift = self.vertex_classes.preimage
        self.k0 = self.vertex_classes.codomain
        self.k1 = FgAbelianGroup(len(basis))
        self.cycles = GroupHom.from_images(self.k1, FgAbelianGroup(len(self.regular)), basis)


def one_ideal_parts(g: DirectedGraph) -> tuple:
    """(H, ideal graph, its type, quotient graph, its type) for a graph
    whose only nontrivial hereditary saturated set is H.

    Raises ValueError unless H is unique and the ideal and quotient both
    classify as af or purely_infinite.
    """
    nontrivial = [d for d in hereditary_saturated_sets(g) if d.nontrivial]
    if len(nontrivial) != 1:
        raise ValueError(f"expected exactly one nontrivial hereditary "
                         f"saturated set, found {len(nontrivial)}")
    hset = nontrivial[0].vertices
    parts: list = [hset]
    rest = [v for v in g.vertices if v not in hset]
    for name, vertices in (("ideal", hset), ("quotient", rest)):
        h = subgraph(g, vertices)
        kind = classify_simple(h)
        if kind not in (AF, PURELY_INFINITE):
            raise ValueError(f"the {name} does not classify as af or "
                             "purely_infinite")
        parts += [h, kind]
    return tuple(parts)


def one_ideal_invariant(g: DirectedGraph) -> SixTermInvariant:
    """Six-term invariant of a graph with exactly one nontrivial ideal.

    The ideal and quotient must classify as af or purely_infinite.
    """
    hset, sub, kind_b, quot, _ = one_ideal_parts(g)
    side_b = GraphKTheory(sub, kind_b == AF)
    # The quotient g[V - H] always has a cycle.  Were it acyclic, it would
    # have a sink s.  An edge from s would land in H, and H, being
    # saturated, would hold s; so s is a sink of g.  Then Sigma({s}) is
    # hereditary and saturated, holds s and misses H, whose edges stay in
    # H: a second nontrivial set.
    side_a = GraphKTheory(quot, af=False)
    whole = GraphKTheory(g, af=False)

    h_idx = sorted(g.index_of(v) for v in hset)
    q_idx = [i for i in range(g.n) if i not in set(h_idx)]
    reg_pos = {v: c for c, v in enumerate(whole.regular)}
    # positions of the ideal's and the quotient's emitting vertices among
    # those of the whole graph
    sub_reg = [reg_pos[h_idx[c]] for c in side_b.regular]
    quot_reg = [reg_pos[q_idx[c]] for c in side_a.regular]
    nreg = len(whole.regular)

    def k0_map(source, target, move):
        """Vertex classes: lift each generator, move its coordinates."""
        return GroupHom.from_images(source.k0, target.k0, [
            target.vertex_classes(move(source.lift(e)))
            for e in identity_rows(source.k0.ngens)])

    def k1_map(source, target, move):
        """K1 rides on the kernel lattices: move each cycle vector."""
        cols = []
        for e in identity_rows(source.k1.ngens):
            sol = target.cycles.preimage(move(source.cycles(e)))
            if sol is None:
                raise RuntimeError("a cycle vector is missing from the target's K1")
            cols.append(sol)
        return GroupHom.from_images(source.k1, target.k1, cols)

    # the inclusion pads the ideal coordinates; the projection drops them
    iota0 = k0_map(side_b, whole, lambda v: _pad(v, h_idx, g.n))
    pi0 = k0_map(whole, side_a, lambda v: [v[j] for j in q_idx])
    iota1 = k1_map(side_b, whole, lambda v: _pad(v, sub_reg, nreg))
    pi1 = k1_map(whole, side_a, lambda v: [v[i] for i in quot_reg])
    delta = GroupHom.zero(side_a.k0, side_b.k1)

    # index map: push a quotient cycle vector through the whole matrix
    # and read off the ideal rows
    cols = []
    for e in identity_rows(side_a.k1.ngens):
        img = whole.matrix.apply(_pad(side_a.cycles(e), quot_reg, nreg))
        cols.append(side_b.vertex_classes([img[j] for j in h_idx]))
    bdry = GroupHom.from_images(side_a.k1, side_b.k0, cols)

    return SixTermInvariant(
        {"K0B": side_b.k0, "K0E": whole.k0, "K0A": side_a.k0,
         "K1A": side_a.k1, "K1E": whole.k1, "K1B": side_b.k1},
        {"K0B->K0E": iota0, "K0E->K0A": pi0, "K0A->K1B": delta,
         "K1B->K1E": iota1, "K1E->K1A": pi1, "K1A->K0B": bdry},
        {"K0B": standard_free_cone() if kind_b == AF else all_positive_cone(),
         "K0E": unordered_cone(), "K0A": all_positive_cone()})

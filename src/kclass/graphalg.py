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

from .matrix import IntMatrix, identity_rows, kernel_basis
from .groups import FgAbelianGroup, GroupHom, Presentation
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
    with them.  v lies on a cycle when a successor reaches it, and that
    cycle has no exit when every vertex of T(v) emits exactly one edge.
    """
    if any(d.nontrivial for d in hereditary_saturated_sets(g)):
        return NOT_SIMPLE
    succ, reach = _reach(g)
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


@dataclass(frozen=True)
class GraphKTheory:
    """K-groups of a graph with the map from vertex space to K0."""

    k0: FgAbelianGroup
    k1: FgAbelianGroup
    vertex_classes: GroupHom   # from Z^vertices onto K0
    unit_class: tuple          # class of the sum of all vertex projections


class _GraphK:
    """K-groups of a graph from M, the transposed adjacency minus the
    identity on the emitting columns (listed in ``regular``).

    ``classes`` maps Z^vertices onto K0, the cokernel of M, read in
    path-count coordinates when ``af`` is set, which needs a graph
    without cycles.  K1 is the integer kernel of M, and ``cycles`` maps
    it into Z^regular, one basis vector per column.
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
            basis = kernel_basis(self.matrix)
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
            self.classes = GroupHom.from_images(vertices, FgAbelianGroup(len(sinks)),
                                                [counts[v] for v in range(graph.n)])
        else:
            pres = Presentation(self.matrix)
            basis = pres.dec.kernel()
            self.classes = pres.quotient(vertices)
        self.k0 = self.classes.codomain
        self.k1 = FgAbelianGroup(len(basis))
        self.cycles = GroupHom.from_images(self.k1, FgAbelianGroup(len(self.regular)), basis)


def graph_ktheory(g: DirectedGraph) -> GraphKTheory:
    kt = _GraphK(g, af=False)
    return GraphKTheory(kt.k0, kt.k1, kt.classes, kt.classes([1] * g.n))


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
    hset, sub, kind_b, quot, kind_a = one_ideal_parts(g)
    side_b = _GraphK(sub, kind_b == AF)
    side_a = _GraphK(quot, kind_a == AF)
    whole = _GraphK(g, af=False)

    h_idx = sorted(g.index_of(v) for v in hset)
    q_idx = [i for i in range(g.n) if i not in set(h_idx)]
    reg_pos = {v: c for c, v in enumerate(whole.regular)}

    def pad(vec, idx, n):
        out = [0] * n
        for x, i in zip(vec, idx):
            out[i] = x
        return out

    # inclusion on K0: vertex classes of the ideal, viewed in the whole graph
    iota0 = GroupHom.from_images(side_b.k0, whole.k0, [
        whole.classes(pad(side_b.classes.preimage(e), h_idx, g.n))
        for e in identity_rows(side_b.k0.ngens)])
    # projection on K0: drop the ideal coordinates
    lifts = [whole.classes.preimage(e) for e in identity_rows(whole.k0.ngens)]
    pi0 = GroupHom.from_images(whole.k0, side_a.k0,
                               [side_a.classes([amb[j] for j in q_idx]) for amb in lifts])
    delta = GroupHom.zero(side_a.k0, side_b.k1)

    # K1 maps ride on the kernel lattices; positions of the ideal's and
    # the quotient's emitting vertices among those of the whole graph
    sub_reg = [reg_pos[h_idx[c]] for c in side_b.regular]
    quot_reg = [reg_pos[q_idx[c]] for c in side_a.regular]
    nreg = len(whole.regular)

    cols = []
    for e in identity_rows(side_b.k1.ngens):
        sol = whole.cycles.preimage(pad(side_b.cycles(e), sub_reg, nreg))
        if sol is None:
            raise RuntimeError("ideal cycle vector is missing upstairs")
        cols.append(sol)
    iota1 = GroupHom.from_images(side_b.k1, whole.k1, cols)

    cols = []
    for e in identity_rows(whole.k1.ngens):
        vec = whole.cycles(e)
        sol = side_a.cycles.preimage([vec[i] for i in quot_reg])
        if sol is None:
            raise RuntimeError("cycle vector does not restrict to the quotient")
        cols.append(sol)
    pi1 = GroupHom.from_images(whole.k1, side_a.k1, cols)

    # index map: push a quotient cycle vector through the whole matrix
    # and read off the ideal rows
    cols = []
    for e in identity_rows(side_a.k1.ngens):
        img = whole.matrix.apply(pad(side_a.cycles(e), quot_reg, nreg))
        cols.append(side_b.classes([img[j] for j in h_idx]))
    bdry = GroupHom.from_images(side_a.k1, side_b.k0, cols)

    return SixTermInvariant(
        {"K0B": side_b.k0, "K0E": whole.k0, "K0A": side_a.k0,
         "K1A": side_a.k1, "K1E": whole.k1, "K1B": side_b.k1},
        {"K0B->K0E": iota0, "K0E->K0A": pi0, "K0A->K1B": delta,
         "K1B->K1E": iota1, "K1E->K1A": pi1, "K1A->K0B": bdry},
        {"K0B": _cone(kind_b), "K0E": unordered_cone(), "K0A": _cone(kind_a)})


def _cone(kind: str):
    """Coordinatewise cone for an af side, the whole group otherwise."""
    return standard_free_cone() if kind == AF else all_positive_cone()


"""Seeded inputs for the four benchmark workloads.

Every workload is a list of comparison pairs plus the input files they
name.  The inputs depend only on the seed and on this file: graphs,
literals and substitution data are built here, and the six-term corpus
follows the construction routes of ``kclass.sampling.invariant_corpus``
with this file's own graph sampler, so a rewrite of the library's
sampler or ideal enumerator does not silently change a workload.  The
library is used only for the algebra of the invariants themselves
(extensions, graph K-theory, automorphism generators), and the pinned
input digests catch any change there.

Where the answer is known by construction, a pair carries it in
``expected``: twisted and permuted copies and Moebius images are
isomorphic, slopes from distinct quadratic fields are not.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field

from kclass.ext import ext1, realize_extension
from kclass.graphalg import DirectedGraph, one_ideal_invariant
from kclass.groups import FgAbelianGroup, GroupHom
from kclass.matrix import IntMatrix
from kclass.autgroups import aut_generators
from kclass.sixterm import (MAP_KEYS, NODES, SixTermInvariant, all_positive_cone,
                            aut_plus_generators, standard_free_cone, unordered_cone)

WORKLOADS = ("sixterm_corpus", "sixterm_twisted", "graph_lattice", "slopes")

# Run-time limits of the library that the inputs stay inside: surd
# arithmetic factors radicands by trial division up to 10**5, and the
# substitution comparator scans all m! alphabet permutations.
MAX_RADICAND = 10 ** 5
MAX_ALPHABET = 6


@dataclass
class Pair:
    """One comparison: CLI command, its two arguments, and what is known.

    ``first``/``second`` are file names inside the workload directory,
    or literals for ``sturmian``.  ``expected`` is the verdict known by
    construction (None when only the golden digest or the consistency
    checks apply).  ``proof`` holds the isomorphisms a twisted copy was
    built with, for the benchmark's own tests.
    """
    cmd: str
    first: str
    second: str
    expected: str | None = None
    proof: object = None


@dataclass
class Workload:
    name: str
    seed: int
    pairs: list[Pair]
    files: dict[str, object] = field(default_factory=dict)

    def commands(self) -> list[str]:
        out: list[str] = []
        for p in self.pairs:
            if p.cmd not in out:
                out.append(p.cmd)
        return out

    def manifest(self, cmd: str) -> list[list[str]]:
        return [[p.first, p.second] for p in self.pairs if p.cmd == cmd]

    def digest(self) -> str:
        """Content digest of every input the program receives."""
        h = hashlib.sha256()
        for cmd in self.commands():
            h.update(_canon({"cmd": cmd, "pairs": self.manifest(cmd)}))
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(_canon(self.files[name]))
        return h.hexdigest()


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- graphs -------------------------------------------------------------

def _successors(adj, i):
    return [j for j, m in enumerate(adj[i]) if m > 0]


def hs_sets(adj) -> list[frozenset]:
    """Every hereditary saturated vertex set, by brute force over subsets.

    Hereditary: no edge leaves the set.  Saturated: no vertex outside
    it emits edges, all of which land inside it.
    """
    n = len(adj)
    succ = [set(_successors(adj, i)) for i in range(n)]
    out = []
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if any(not succ[i] <= s for i in s):
            continue
        if any(succ[i] and succ[i] <= s for i in range(n) if i not in s):
            continue
        out.append(frozenset(s))
    return out


def _simple_kind(adj) -> str | None:
    """'af' or 'pi' for a graph whose algebra is simple, else None."""
    n = len(adj)
    if any(0 < len(s) < n for s in hs_sets(adj)):
        return None
    reach = [[adj[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    on_cycle = [i for i in range(n) if reach[i][i]]
    # a cycle without an exit runs through out-degree-one vertices only
    succ = {i: _successors(adj, i)[0] for i in range(n) if sum(adj[i]) == 1}
    for start in succ:
        seen, v = set(), start
        while v in succ and v not in seen:
            seen.add(v)
            v = succ[v]
        if v in seen:
            return None
    return "pi" if on_cycle else "af"


def _sub(adj, idx):
    return [[adj[i][j] for j in idx] for i in idx]


def corpus_graph(rng: random.Random, max_vertices: int = 6, max_mult: int = 3,
                 attempts: int = 4000) -> DirectedGraph:
    """Rejection sampler for graphs with exactly one proper ideal whose
    ideal and quotient are both simple; the same random draws as the
    library's ``random_one_ideal_graph``."""
    for _ in range(attempts):
        nb = rng.randint(1, max_vertices - 1)
        na = rng.randint(1, max_vertices - nb)
        n = nb + na
        adj = [[0] * n for _ in range(n)]
        for i in range(nb):
            for j in range(nb):
                if rng.random() < 0.5:
                    adj[i][j] = rng.randint(1, max_mult)
        for i in range(nb, n):
            for j in range(n):
                if rng.random() < 0.45:
                    adj[i][j] = rng.randint(1, max_mult)
        proper = [s for s in hs_sets(adj) if 0 < len(s) < n]
        if len(proper) != 1:
            continue
        h = sorted(proper[0])
        rest = [i for i in range(n) if i not in proper[0]]
        if _simple_kind(_sub(adj, h)) is None or _simple_kind(_sub(adj, rest)) is None:
            continue
        return DirectedGraph([f"v{i}" for i in range(n)], IntMatrix(adj))
    raise RuntimeError("no admissible graph found within the attempt budget")


def _strongly_connected(rng: random.Random, k: int, density: float) -> list[list[int]]:
    """A strongly connected graph on k vertices in which some vertex
    emits two edges, so every cycle has an exit."""
    adj = [[0] * k for _ in range(k)]
    order = list(range(k))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a][b] = 1
    for i in range(k):
        for j in range(k):
            if rng.random() < density:
                adj[i][j] += rng.randint(1, 2)
    if all(sum(row) == 1 for row in adj):
        adj[order[0]][order[0]] += 1
    return adj


def lattice_graph(rng: random.Random, n: int) -> DirectedGraph:
    """A graph on n vertices with exactly one proper ideal, by construction.

    The ideal block B is simple (a path-connected acyclic block with one
    sink, or strongly connected with an exit on every cycle), the
    quotient block A is strongly connected with exits, every A vertex
    keeps an edge inside A and at least one edge runs from A into B.
    Then the hereditary saturated sets are exactly {}, B and everything.
    """
    nb = rng.randint(1, n - 2)
    na = n - nb
    if nb <= 3 and rng.random() < 0.5:
        block_b = [[0] * nb for _ in range(nb)]   # edges i -> i+1 .. sink nb-1
        for i in range(nb - 1):
            block_b[i][i + 1] = rng.randint(1, 2)
            for j in range(i + 2, nb):
                if rng.random() < 0.5:
                    block_b[i][j] = 1
    else:
        block_b = _strongly_connected(rng, nb, 2.0 / nb)
    block_a = _strongly_connected(rng, na, 2.0 / na)
    adj = [[0] * n for _ in range(n)]
    for i in range(nb):
        adj[i][:nb] = block_b[i]
    for i in range(na):
        adj[nb + i][nb:] = block_a[i]
        for j in range(nb):
            if rng.random() < 1.5 / nb:
                adj[nb + i][j] = rng.randint(1, 2)
    if not any(adj[nb + i][j] for i in range(na) for j in range(nb)):
        adj[nb + rng.randrange(na)][rng.randrange(nb)] = 1
    return DirectedGraph([f"v{i}" for i in range(n)], IntMatrix(adj))


def permuted(g: DirectedGraph, rng: random.Random) -> DirectedGraph:
    n = g.n
    perm = list(range(n))
    rng.shuffle(perm)          # old vertex i becomes new vertex perm[i]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            adj[perm[i]][perm[j]] = g.adjacency[i, j]
    return DirectedGraph([f"v{i}" for i in range(n)], IntMatrix(adj))


# -- six-term invariants --------------------------------------------------

def _cone(rng: random.Random, G: FgAbelianGroup):
    choices = [all_positive_cone(), unordered_cone()]
    if not G.torsion:
        choices.append(standard_free_cone())
    return rng.choice(choices)


def _extension(rng: random.Random, small: bool = False):
    opts = [(), (2,), (3,), (4,), (6,)]
    while True:
        A = FgAbelianGroup(rng.randint(0, 1), rng.choice(opts))
        B = FgAbelianGroup(rng.randint(0, 1), rng.choice(opts))
        if small and (A.free_rank + B.free_rank > 1):
            continue
        if A.ngens + B.ngens == 0:
            continue
        break
    E = ext1(A, B)
    raw = [rng.randrange(24) for _ in range(E.nblocks * E.block_size)]
    x = E.element(raw) if raw else E.zero()
    G, incl, proj = realize_extension(x)
    return A, B, G, incl, proj


def _zero(d, c):
    return GroupHom(d, c, IntMatrix.zeros(c.ngens, d.ngens))


def _vanishing_k1(rng: random.Random) -> SixTermInvariant:
    A, B, G, incl, proj = _extension(rng)
    T = FgAbelianGroup(0, ())
    groups = {"K0B": B, "K0E": G, "K0A": A, "K1A": T, "K1E": T, "K1B": T}
    maps = {"K0B->K0E": incl, "K0E->K0A": proj, "K0A->K1B": _zero(A, T),
            "K1B->K1E": _zero(T, T), "K1E->K1A": _zero(T, T), "K1A->K0B": _zero(T, B)}
    cones = {"K0B": _cone(rng, B), "K0E": unordered_cone(), "K0A": _cone(rng, A)}
    return SixTermInvariant(groups, maps, cones)


def _glued_pair(rng: random.Random) -> SixTermInvariant:
    A0, B0, G0, incl0, proj0 = _extension(rng)
    A1, B1, G1, incl1, proj1 = _extension(rng, small=True)
    groups = {"K0B": B0, "K0E": G0, "K0A": A0, "K1B": B1, "K1E": G1, "K1A": A1}
    maps = {"K0B->K0E": incl0, "K0E->K0A": proj0, "K0A->K1B": _zero(A0, B1),
            "K1B->K1E": incl1, "K1E->K1A": proj1, "K1A->K0B": _zero(A1, B0)}
    cones = {"K0B": _cone(rng, B0), "K0E": unordered_cone(), "K0A": _cone(rng, A0)}
    return SixTermInvariant(groups, maps, cones)


def _unit_cycle(rng: random.Random) -> SixTermInvariant:
    p = rng.choice((2, 3))
    G = FgAbelianGroup(0, (p * p,))
    units = [u for u in range(1, p * p) if u % p != 0]
    maps = {k: GroupHom(G, G, IntMatrix([[p * rng.choice(units) % (p * p)]]))
            for k in MAP_KEYS}
    cones = {"K0B": _cone(rng, G), "K0E": unordered_cone(), "K0A": _cone(rng, G)}
    return SixTermInvariant({n: G for n in NODES}, maps, cones)


def corpus(seed: int, count: int, stratified: bool = False) -> list[SixTermInvariant]:
    """The seeded six-term corpus: vanishing-K1 extensions, glued pairs,
    unit-twisted hexagons and invariants of one-ideal graphs.

    Stratified, each route gets its exact share of the corpus (in a
    seeded order) instead of a random one, so every seed has the same
    route mix.
    """
    rng = random.Random(seed)
    if stratified:
        shares = random.Random(f"routes-{seed}").sample(range(count), count)
    out = []
    for k in range(count):
        route = rng.random()
        if stratified:
            route = (shares[k] + 0.5) / count
        if route < 0.35:
            out.append(_vanishing_k1(rng))
        elif route < 0.65:
            out.append(_glued_pair(rng))
        elif route < 0.8:
            out.append(_unit_cycle(rng))
        else:
            out.append(one_ideal_invariant(corpus_graph(rng)))
    return out


def _random_aut(rng: random.Random, gens: list[GroupHom], G: FgAbelianGroup,
                length: int) -> GroupHom:
    h = GroupHom.identity(G)
    for _ in range(length if gens else 0):
        h = rng.choice(gens) @ h
    return h


def twist(inv: SixTermInvariant, rng: random.Random, max_word: int = 2):
    """An isomorphic copy of inv and the six isomorphisms onto it.

    Each node gets a random word of length up to ``max_word`` in the
    generators of its (order) automorphism group; every map is conjugated
    by the automorphisms at its two ends.
    """
    phi = {}
    for node in NODES:
        G = inv.groups[node]
        gens = (aut_plus_generators(G, inv.cones[node]) if node in ("K0B", "K0A")
                else aut_generators(G))
        phi[node] = _random_aut(rng, gens, G, rng.randint(1, max_word))
    maps = {}
    for key in MAP_KEYS:
        src, dst = key.split("->")
        maps[key] = phi[dst] @ inv.maps[key] @ phi[src].inverse()
    copy = SixTermInvariant(dict(inv.groups), maps, dict(inv.cones))
    witness = {"beta0": phi["K0B"], "eta0": phi["K0E"], "alpha0": phi["K0A"],
               "beta1": phi["K1B"], "eta1": phi["K1E"], "alpha1": phi["K1A"]}
    return copy, witness


# -- quadratic irrationals --------------------------------------------------

def squarefree_part(d: int) -> int:
    out, p = 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
        if d % p == 0:
            out *= p
            d //= p
        p += 1
    return out * d


@dataclass(frozen=True)
class Surd:
    """(a + b*sqrt(d))/c with b != 0 and d not a square."""
    a: int
    b: int
    c: int
    d: int

    def literal(self) -> str:
        return f"({self.a}{'+' if self.b > 0 else '-'}{abs(self.b)}*sqrt({self.d}))/{self.c}"


def mobius(M, x: Surd) -> Surd:
    """(p x + q)/(r x + s) in exact integer arithmetic."""
    (p, q), (r, s) = M
    a1, b1 = p * x.a + q * x.c, p * x.b
    a2, b2 = r * x.a + s * x.c, r * x.b
    den = a2 * a2 - b2 * b2 * x.d
    a, b = a1 * a2 - b1 * b2 * x.d, b1 * a2 - a1 * b2
    g = math.gcd(math.gcd(a, b), den)
    if den < 0:
        g = -g
    return Surd(a // g, b // g, den // g, x.d)


def cf_period(x: Surd, max_steps: int = 10 ** 6) -> tuple[int, ...]:
    """Minimal period of the continued fraction of x, by the integer
    recurrence on (P + sqrt(D))/Q (Cohen, section 5.7)."""
    P, D, Q = x.a, x.b * x.b * x.d, x.c
    if x.b < 0:
        P, Q = -P, -Q
    if (D - P * P) % Q:
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    r = math.isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    digits: list[int] = []
    for k in range(max_steps):
        if (P, Q) in seen:
            return tuple(digits[seen[P, Q]:])
        seen[P, Q] = k
        q = (P + r) // Q if Q > 0 else (P + r + 1) // Q
        digits.append(q)
        P = q * Q - P
        Q = (D - P * P) // Q
    raise RuntimeError("continued fraction did not close")


def same_orbit(x: Surd, y: Surd) -> bool:
    """Integral Moebius equivalence: the periods agree up to rotation."""
    p1, p2 = cf_period(x), cf_period(y)
    return len(p1) == len(p2) and any(p1[r:] + p1[:r] == p2 for r in range(len(p1)))


def _radicand(rng: random.Random, lo: float, hi: float) -> int:
    """A non-square radicand drawn uniformly from [lo, hi]."""
    d = int(rng.uniform(lo, hi))
    if math.isqrt(d) ** 2 == d:
        d += 1
    return min(d, MAX_RADICAND)


def _surd(rng: random.Random, d: int) -> Surd:
    return Surd(rng.randint(-9, 9), rng.choice((-1, 1)),
                rng.choice((-2, -1, 1, 2)), d)


def _typical_surd(rng: random.Random, lo: float, hi: float) -> Surd:
    """A surd with radicand in [lo, hi] whose period length is between
    0.2 and 0.4 times sqrt(d), the middle of its spread, so that the
    cost of expanding it follows the radicand."""
    while True:
        x = _surd(rng, _radicand(rng, lo, hi))
        if 0.2 <= len(cf_period(x)) / math.sqrt(x.d) <= 0.4:
            return x


SHEARS = ([[1, 1], [0, 1]], [[1, 0], [1, 1]])
UNIMODULAR_GENERATORS = SHEARS + ([[0, 1], [1, 0]], [[1, -1], [0, 1]])


def _matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
            for i in range(len(X))]


def _word(rng: random.Random, letters, length: int):
    """The product of ``length`` random 2x2 letters."""
    M = [[1, 0], [0, 1]]
    for _ in range(length):
        M = _matmul(M, rng.choice(letters))
    return M


def _subst_json(n, p, F, A):
    m = len(A)
    rows = [[1 if j == i else 0 for j in range(n)] + list(F[i]) for i in range(n)]
    rows += [[0] * n + list(A[i]) for i in range(m)]
    return {"n": n, "p": list(p), "A": [list(r) for r in A], "A_tilde": rows}


def _primitive(rng: random.Random, m: int):
    """A nonnegative matrix with a full cycle and a loop: primitive."""
    A = [[rng.choice((0, 0, 1, 2)) for _ in range(m)] for _ in range(m)]
    for i in range(m):
        A[i][(i + 1) % m] = max(A[i][(i + 1) % m], 1)
    A[0][0] = max(A[0][0], 1)
    return A


def _positive_unimodular(rng: random.Random):
    """A positive 2x2 matrix of determinant 1 (a word in the two
    elementary shears using both), which has a Perron slope."""
    while True:
        M = _word(rng, SHEARS, rng.randint(2, 5))
        if all(x > 0 for row in M for x in row):
            return M


# -- the workloads ------------------------------------------------------------

def _corpus_workload(seed: int, count: int = 400, pairs: int = 800) -> Workload:
    invs = corpus(seed, count)
    rng = random.Random(f"pairs-{seed}")
    chosen = sorted(rng.sample(list(itertools.combinations(range(count), 2)), pairs))
    files = {f"inv{i:03d}.json": inv.to_json() for i, inv in enumerate(invs)}
    return Workload("sixterm_corpus", seed,
                    [Pair("sixterm", f"inv{i:03d}.json", f"inv{j:03d}.json")
                     for i, j in chosen], files)


def _twisted_workload(seed: int, count: int = 160) -> Workload:
    invs = corpus(seed, count, stratified=True)
    rng = random.Random(f"twist-{seed}")
    files, out = {}, []
    for i, inv in enumerate(invs):
        # a twist can leave every map as it was; such a copy would be
        # decided by the identity shortcut, so draw again a few times
        for _ in range(8):
            copy, witness = twist(inv, rng)
            if copy != inv:
                break
        files[f"inv{i:03d}.json"] = inv.to_json()
        files[f"twist{i:03d}.json"] = copy.to_json()
        out.append(Pair("sixterm", f"inv{i:03d}.json", f"twist{i:03d}.json",
                        "isomorphic", witness))
    return Workload("sixterm_twisted", seed, out, files)


def _graph_workload(seed: int, sizes=(9,) * 50) -> Workload:
    rng = random.Random(f"graph-{seed}")
    graphs = [lattice_graph(rng, n) for n in sizes]
    files, out = {}, []
    for i, g in enumerate(graphs):
        files[f"g{i:03d}.json"] = g.to_json()
        files[f"p{i:03d}.json"] = permuted(g, rng).to_json()
        out.append(Pair("graph", f"g{i:03d}.json", f"p{i:03d}.json", "isomorphic"))
    for i in range(len(graphs)):
        j = (i + 1 + rng.randrange(len(graphs) - 1)) % len(graphs)
        out.append(Pair("graph", f"g{i:03d}.json", f"g{j:03d}.json"))
    return Workload("graph_lattice", seed, out, files)


def _slopes_workload(seed: int, sturmian: int = 300, subst: int = 120) -> Workload:
    rng = random.Random(f"slopes-{seed}")
    out: list[Pair] = []
    # one radicand per stratum of [2, MAX_RADICAND], so every seed spreads
    # its pairs over the same range; surd cost grows with the radicand
    width = (MAX_RADICAND - 2) / sturmian
    for k in range(sturmian):
        x = _typical_surd(rng, 2 + k * width, 2 + (k + 1) * width)
        kind = k % 3
        if kind == 0:
            y = mobius(_word(rng, UNIMODULAR_GENERATORS, rng.randint(1, 6)), x)
        elif kind == 1:
            y = _typical_surd(rng, x.d, x.d)
        else:
            while True:
                y = _surd(rng, _radicand(rng, 2, MAX_RADICAND))
                if squarefree_part(y.d) != squarefree_part(x.d):
                    break
        # the integer recurrence is independent of the library's surd code
        verdict = "isomorphic" if same_orbit(x, y) else "not_isomorphic"
        if kind == 0 and verdict != "isomorphic":
            raise AssertionError("a Moebius image left its orbit")
        if kind == 2 and verdict != "not_isomorphic":
            raise AssertionError("slopes from distinct fields share an orbit")
        out.append(Pair("sturmian", x.literal(), y.literal(), verdict))

    files: dict[str, object] = {}

    def add(A1, F1, p1, A2, F2, p2, expected):
        i = len(files) // 2
        files[f"s{i:03d}a.json"] = _subst_json(len(p1), p1, F1, A1)
        files[f"s{i:03d}b.json"] = _subst_json(len(p2), p2, F2, A2)
        out.append(Pair("subst", f"s{i:03d}a.json", f"s{i:03d}b.json", expected))

    # the comparator scans permutations in lexicographic order, so the
    # rank of the conjugating one sets the cost; ranks are stratified
    # over the m! permutations, one stratum per pair of that size
    def size(k):
        return 2 + (k // 4) % (MAX_ALPHABET - 1)
    conjugated = [k for k in range(subst) if k % 4 in (0, 1)]
    stratum = {}   # pair -> (its stratum, number of strata) among pairs of its size
    for k in conjugated:
        same = [c for c in conjugated if size(c) == size(k)]
        stratum[k] = (same.index(k), len(same))
    for k in range(subst):
        n = 1 + k % 2
        p = [rng.randint(1, 3) for _ in range(n)]
        kind = k % 4
        if kind in (0, 1):
            # alphabet conjugated by a permutation, distinguished
            # coordinates shuffled: isomorphic
            m = size(k)
            A = _primitive(rng, m)
            F = [[rng.randint(0, 2) for _ in range(m)] for _ in range(n)]
            slot, strata = stratum[k]
            rank = int(rng.uniform(slot, slot + 1) * math.factorial(m) / strata)
            pi = _nth_permutation(m, rank)
            A2 = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(m):
                    A2[pi[i]][pi[j]] = A[i][j]
            sigma = list(range(n))
            rng.shuffle(sigma)
            F2 = [[0] * m for _ in range(n)]
            p2 = [0] * n
            for i in range(n):
                p2[sigma[i]] = p[i]
                for j in range(m):
                    F2[sigma[i]][pi[j]] = F[i][j]
            add(A, F, p, A2, F2, p2, "isomorphic")
        elif kind == 2:
            # a unimodular matrix and its square share the Perron slope
            A = _positive_unimodular(rng)
            F = [[rng.randint(0, 2) for _ in range(2)] for _ in range(n)]
            add(A, F, p, _matmul(A, A), F, p, "isomorphic")
        else:
            # Perron slopes from distinct quadratic fields
            while True:
                A, B = _positive_unimodular(rng), _positive_unimodular(rng)
                if _perron_field(A) != _perron_field(B):
                    break
            F = [[rng.randint(0, 2) for _ in range(2)] for _ in range(n)]
            add(A, F, p, B, F, p, "not_isomorphic")
    return Workload("slopes", seed, out, files)


def _nth_permutation(m: int, rank: int) -> list[int]:
    """The permutation of range(m) at ``rank`` in lexicographic order."""
    items, out = list(range(m)), []
    for i in range(m, 0, -1):
        q, rank = divmod(rank, math.factorial(i - 1))
        out.append(items.pop(q))
    return out


def _perron_field(A) -> int:
    (a, b), (c, d) = A
    return squarefree_part((a - d) ** 2 + 4 * b * c)


_BUILDERS = {"sixterm_corpus": _corpus_workload,
             "sixterm_twisted": _twisted_workload,
             "graph_lattice": _graph_workload,
             "slopes": _slopes_workload}

# Reduced sizes for the benchmark's own tests.
TOY = {"sixterm_corpus": {"count": 12, "pairs": 30},
       "sixterm_twisted": {"count": 6},
       "graph_lattice": {"sizes": (5, 6, 7, 8)},
       "slopes": {"sturmian": 9, "subst": 8}}


def generate(name: str, seed: int, toy: bool = False) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[name](seed, **(TOY[name] if toy else {}))

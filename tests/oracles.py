"""Independent brute-force oracles shared by the test modules."""
import itertools
import math
import random
from collections import defaultdict
from math import gcd

from kclass.graphalg import IdealDatum
from kclass.groups import GroupHom, relation_matrix, solve_hom_equations
from kclass.matrix import IntMatrix, preimage_lattice, snf
from kclass.surd import QuadraticIrrational, convergent_matrix, mobius_apply


def mobius_equivalent_bruteforce(x: QuadraticIrrational, y: QuadraticIrrational,
                                 bound: int = 50) -> IntMatrix | None:
    """Search all integral Moebius maps with entries in [-bound, bound].

    For each denominator row (r, s) the numerator row (p, q) of a map
    sending x to y is forced linearly, so the search is exhaustive over
    the full entry box without enumerating it.  Returns a witness matrix
    with determinant +-1, or None.
    """
    # integral maps preserve the quadratic field: sqrt(x.d) and sqrt(y.d)
    # span one field exactly when x.d * y.d is a perfect square root**2,
    # and then sqrt(y.d) = root * sqrt(x.d) / x.d writes y over x's
    # radicand, so that the solve below can read w.b against x.b
    root = math.isqrt(x.d * y.d)
    if root * root != x.d * y.d:
        return None
    y = QuadraticIrrational(y.a * x.d, y.b * root, y.c * x.d, x.d)
    a, b, c = x.a, x.b, x.c
    for r in range(-bound, bound + 1):
        for s in range(-bound, bound + 1):
            if r == 0 and s == 0:
                continue
            den = x * r + s
            if den.sign() == 0:
                continue
            w = y * den
            A, B, C = w.a, w.b, w.c
            # p x + q = w forces C p b = c B and C(p a + q c) = c A
            if C * b == 0 or (c * B) % (C * b):
                continue
            p = (c * B) // (C * b)
            num = c * A - C * p * a
            if num % (c * C):
                continue
            q = num // (c * C)
            if abs(p) > bound or abs(q) > bound:
                continue
            if p * s - q * r not in (1, -1):
                continue
            M = IntMatrix([[p, q], [r, s]])
            if mobius_apply(M, x) == y:
                return M
    return None


def cf_value(preperiod, period) -> QuadraticIrrational:
    """The quadratic irrational with the given continued fraction."""
    if not period:
        raise ValueError("period must be nonempty")
    G = convergent_matrix(period)
    a, b, c, dd = G[0, 0], G[0, 1], G[1, 0], G[1, 1]
    # purely periodic tail y satisfies c y^2 + (dd - a) y - b = 0
    disc = (a - dd) * (a - dd) + 4 * b * c
    y = QuadraticIrrational(a - dd, 1, 2 * c, disc)
    return mobius_apply(convergent_matrix(preperiod), y)


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(rows: list[list[int]], k: int) -> int:
    """Gcd of all k x k minors, 0 when every minor vanishes."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for rsel in itertools.combinations(range(m), k):
        for csel in itertools.combinations(range(n), k):
            sub = [[rows[i][j] for j in csel] for i in rsel]
            g = gcd(g, det_bareiss(sub))
            if g == 1:
                return 1
    return g


def cyclic_quotient_order(n: int, m: int) -> int:
    """Order of (Z/n) / m(Z/n) by direct enumeration."""
    if n == 0:
        raise ValueError("need a finite cyclic group")
    image = {(m * x) % n for x in range(n)}
    return n // len(image)


def hereditary_saturated_sets_bruteforce(g) -> list[IdealDatum]:
    """Every hereditary saturated vertex set, by testing every subset.

    Hereditary: no edge leaves the set.  Saturated: no vertex outside it
    emits edges that all land inside it.  Subsets come in
    ``itertools.combinations`` order: by size, then by vertex indices.
    """
    n = g.n
    succ = [{j for j in range(n) if g.adjacency[i, j] > 0} for i in range(n)]
    out = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            hereditary = all(succ[i] <= s for i in s)
            saturated = not any(succ[i] and succ[i] <= s
                                for i in range(n) if i not in s)
            if hereditary and saturated:
                out.append(IdealDatum(tuple(g.vertices[i] for i in combo),
                                      True, True, 0 < r < n))
    return out


def elements(G):
    """Every element of the finite group G, as coordinate tuples in
    lexicographic order."""
    if not G.is_finite():
        raise ValueError("cannot enumerate an infinite group")
    return itertools.product(*(range(d) for d in G.torsion))


def is_exact_pair_bruteforce(f, g) -> bool:
    """Whether image(f) equals kernel(g), by listing every element of the
    finite groups involved."""
    image = {f(x) for x in elements(f.domain)}
    zero = g.codomain.zero()
    return image == {y for y in elements(g.domain) if g(y) == zero}


def is_exact_pair_by_invariant_factors(f, g) -> bool:
    """Whether image(f) equals kernel(g), for groups finite or not, by
    three Smith forms.

    image(f) lies in kernel(g) exactly when g f = 0.  Then the lattice
    [f | R] of image(f) lies in the lattice [f | R | kernel(g)], so Z^n
    modulo the first maps onto Z^n modulo the second.  A surjection
    between isomorphic finitely generated abelian groups is injective, so
    the lattices are equal exactly when they have the same nonzero
    invariant factors.
    """
    if not (g @ f).is_zero():
        return False
    mid = f.codomain
    im_lat = IntMatrix.hstack(f.matrix, relation_matrix(mid))
    ker_span = preimage_lattice(g.matrix, relation_matrix(g.codomain))
    both = IntMatrix.hstack(im_lat, IntMatrix.from_columns(ker_span, rows=mid.ngens))
    return ([d for d in snf(im_lat).diagonal() if d]
            == [d for d in snf(both).diagonal() if d])


def inverse_by_hom_equations(h) -> GroupHom:
    """Inverse of an isomorphism as the solution H of H h = identity, one
    integer system in the n^2 entries of H, checked on the other side."""
    inv = solve_hom_equations(h.codomain, h.domain,
                              [(None, h, IntMatrix.identity(h.domain.ngens))])
    if inv is None or (h @ inv).matrix != IntMatrix.identity(h.codomain.ngens):
        raise ValueError("hom is not invertible")
    return inv


def homs_bruteforce(G, H) -> list[GroupHom]:
    """Every homomorphism between two finite groups, by trying each choice
    of generator images and keeping those that each generator's order
    kills."""
    if not (G.is_finite() and H.is_finite()):
        raise ValueError("brute enumeration needs finite groups")
    out = []
    for imgs in itertools.product(list(elements(H)), repeat=G.ngens):
        if all(H.reduce([o * c for c in img]) == H.zero()
               for o, img in zip(G.gen_orders, imgs)):
            out.append(GroupHom(G, H, IntMatrix.from_columns(imgs, rows=H.ngens)))
    return out


def _cycle_vertices(g) -> set:
    """Indices of vertices lying on some directed cycle."""
    reach = [[g.adjacency[i, j] > 0 for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                for j in range(g.n):
                    if reach[k][j]:
                        reach[i][j] = True
    return {i for i in range(g.n) if reach[i][i]}


def _has_exitless_cycle(g) -> bool:
    # a cycle with no exit forces out-degree exactly one along it
    succ = {}
    for i in range(g.n):
        if g.out_degree(i) == 1:
            succ[i] = next(j for j in range(g.n) if g.adjacency[i, j] > 0)
    for start in succ:
        slow = start
        seen = set()
        while slow in succ and slow not in seen:
            seen.add(slow)
            slow = succ[slow]
        if slow in seen:
            return True
    return False


def _topological_order(g) -> list[int]:
    indeg = [0] * g.n
    for i in range(g.n):
        for j in range(g.n):
            if g.adjacency[i, j] > 0 and i != j:
                indeg[j] += 1
    order = [i for i in range(g.n) if indeg[i] == 0]
    for v in order:
        for j in range(g.n):
            if g.adjacency[v, j] > 0 and v != j:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
    if len(order) != g.n:
        raise ValueError("graph has a cycle, no topological order exists")
    return order


def classify_simple_bruteforce(g) -> str:
    """not_simple, af or purely_infinite from the subset lattice, a
    Floyd-Warshall closure for cycles and a walk along the vertices of
    out-degree one for cycles without exits."""
    if any(d.nontrivial for d in hereditary_saturated_sets_bruteforce(g)):
        return "not_simple"
    if _has_exitless_cycle(g):
        return "not_simple"
    return "purely_infinite" if _cycle_vertices(g) else "af"


def af_path_counts_bruteforce(g) -> list[list[int]]:
    """Number of paths from each vertex to each sink of a graph without
    cycles, one row per sink and one column per vertex, filled in
    reverse topological order."""
    sinks = [i for i in range(g.n) if not g.is_regular(i)]
    counts = {}
    for v in reversed(_topological_order(g)):
        if v in sinks:
            vec = [0] * len(sinks)
            vec[sinks.index(v)] = 1
            counts[v] = vec
        else:
            vec = [0] * len(sinks)
            for w in range(g.n):
                m = g.adjacency[v, w]
                if m:
                    vec = [a + m * b for a, b in zip(vec, counts[w])]
            counts[v] = vec
    return [[counts[v][s] for v in range(g.n)] for s in range(len(sinks))]


def ext_elements(E):
    """Every element of an Ext group, by enumerating its reduced
    coordinates (a zero modulus stands for the single value 0)."""
    for coords in itertools.product(*(range(max(m, 1)) for m in E.moduli)):
        yield E.element(coords)


def conjugating_permutation_bruteforce(rows1, rows2) -> list[int] | None:
    """The first perm, in lexicographic order, with P A1 = A2 P for the
    permutation matrix P sending letter j to letter perm[j], or None.

    Scans all m! permutations, so only small alphabets are in reach.
    """
    A1, A2 = IntMatrix(rows1), IntMatrix(rows2)
    m = A1.rows
    for perm in itertools.permutations(range(m)):
        P = IntMatrix([[1 if perm[j] == i else 0 for j in range(m)] for i in range(m)])
        if P @ A1 == A2 @ P:
            return list(perm)
    return None


def aut_brute(G) -> list[GroupHom]:
    """Every automorphism of a small finite group, by exhaustion.

    Enumerates all generator images, so the cost is
    |G| ** (number of generators).
    """
    if G.free_rank != 0:
        raise ValueError("brute enumeration needs a finite group")
    n = G.ngens
    if n == 0:
        return [GroupHom.identity(G)]
    ranges = [range(d) for d in G.torsion]
    out = []
    all_coords = list(itertools.product(*ranges))
    for cols in itertools.product(all_coords, repeat=n):
        try:
            h = GroupHom(G, G, IntMatrix.from_columns(cols, rows=n))
        except ValueError:
            continue
        if h.is_isomorphism():
            out.append(h)
    return out


def subgroup_closure_reference(gens, limit, group):
    """All products of the generators sorted by matrix entries, or None
    past ``limit`` elements: a breadth-first loop of its own, the
    reference for ``kclass.autgroups.subgroup_closure``."""
    if not gens:
        return [GroupHom.identity(group)]
    ident = GroupHom.identity(gens[0].domain)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                c = g @ h
                if c not in seen:
                    seen.add(c)
                    if len(seen) > limit:
                        return None
                    new.append(c)
        frontier = new
    return sorted(seen, key=lambda h: h.matrix.to_lists())


def word_ball_reference(gens, radius, limit):
    """Distinct products of at most ``radius`` generators or inverses,
    breadth first with ties by matrix entries, cut at ``limit``: the
    reference for ``kclass.autgroups.word_ball``, except that it gives
    [] for no generators."""
    if not gens:
        return []
    alphabet = []
    for g in gens:
        alphabet.append(g)
        inv = g.inverse()
        if inv not in alphabet:
            alphabet.append(inv)
    ident = GroupHom.identity(gens[0].domain)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    for _ in range(radius):
        new = []
        for h in frontier:
            for g in alphabet:
                c = g @ h
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                    new.append(c)
                    if len(order) >= limit:
                        return order
        new.sort(key=lambda h: h.matrix.to_lists())
        frontier = new
    return order


def sifted_order_bound(perms, n: int, target: int, rounds: int = 4000) -> int:
    """A lower bound on the order of the group generated by permutations
    of range(n), raised until it reaches ``target`` or ``rounds`` run out.

    Random Schreier-Sims: seeded random products of the generators are
    sifted through a stabiliser chain, and a residue other than the
    identity joins the chain at the level where it stopped.  Each
    level's generators fix the earlier base points, so the product of
    the basic orbit lengths never exceeds the group order.
    """
    ident = tuple(range(n))

    def mul(p, q):  # q first, then p
        return tuple(p[x] for x in q)

    def inv(p):
        out = [0] * n
        for i, x in enumerate(p):
            out[x] = i
        return tuple(out)

    base, gens, trans = [], [], []
    rng = random.Random(0)
    for _ in range(rounds):
        if math.prod(len(t) for t in trans) >= target or not perms:
            break
        g = ident
        for _ in range(rng.randint(10, 30)):  # both parities of word length
            g = mul(rng.choice(perms), g)
        for i, b in enumerate(base):
            u = trans[i].get(g[b])
            if u is None:
                break
            g = mul(inv(u), g)
        else:
            if g == ident:
                continue
            i = len(base)
            base.append(next(x for x in range(n) if g[x] != x))
            gens.append([])
            trans.append({})
        gens[i].append(g)
        orbit = {base[i]: ident}
        frontier = [base[i]]
        while frontier:
            x = frontier.pop()
            for s in gens[i]:
                if s[x] not in orbit:
                    orbit[s[x]] = mul(s, orbit[x])
                    frontier.append(s[x])
        trans[i] = orbit
    return math.prod(len(t) for t in trans)


def _automorphism_tables(G) -> list[tuple[int, ...]]:
    """Element tables of every automorphism of the finite group G.

    A table lists the index of the image of each element of
    ``elements(G)``.  Every choice of generator images that each
    generator's order kills gives a homomorphism; the automorphisms are
    those whose table is a bijection.
    """
    elems = list(elements(G))
    index = {x: i for i, x in enumerate(elems)}
    zero = G.zero()
    out = []
    for imgs in itertools.product(elems, repeat=G.ngens):
        if any(G.reduce([d * c for c in g]) != zero
               for d, g in zip(G.torsion, imgs)):
            continue
        table = tuple(index[G.reduce([sum(xi * g[j] for xi, g in zip(x, imgs))
                                      for j in range(G.ngens)])]
                      for x in elems)
        if len(set(table)) == len(elems):
            out.append(table)
    return out


def sixterm_iso_bruteforce(inv1, inv2) -> bool:
    """Whether two six-term invariants whose six groups are finite are
    isomorphic, by a search over the automorphisms at all six nodes.

    Every map is held as its element table.  A witness is an automorphism
    at each node (equal groups are required) making the six squares
    commute; the middle maps eta0 and eta1 are searched like the others,
    indexed by the two composites their squares fix.  On a finite group
    every automorphism preserves the all_positive and unordered cones,
    and differing cone tags at a nontrivial end admit no order
    isomorphism.
    """
    if inv1.groups != inv2.groups:
        return False
    groups = inv1.groups
    for node in ("K0B", "K0A"):
        if (inv1.cones[node].tag != inv2.cones[node].tag
                and not groups[node].is_trivial()):
            return False
    elems = {n: list(elements(G)) for n, G in groups.items()}
    index = {n: {x: i for i, x in enumerate(es)} for n, es in elems.items()}

    def tables(inv):
        out = {}
        for key, h in inv.maps.items():
            src, dst = key.split("->")
            out[key] = tuple(index[dst][h(x)] for x in elems[src])
        return out

    def after(f, g):
        return tuple(f[i] for i in g)

    m1, m2 = tables(inv1), tables(inv2)
    auts = {n: _automorphism_tables(G) for n, G in groups.items()}
    # eta0 . iota1 = iota2 . beta0 and pi2 . eta0 = alpha0 . pi1
    iota0_by_pi0 = defaultdict(set)
    for e in auts["K0E"]:
        iota0_by_pi0[after(m2["K0E->K0A"], e)].add(after(e, m1["K0B->K0E"]))
    # eta1 . iota1 = iota2 . beta1 and pi2 . eta1 = alpha1 . pi1
    eta1_keys = {(after(e, m1["K1B->K1E"]), after(m2["K1E->K1A"], e))
                 for e in auts["K1E"]}
    beta0_by = defaultdict(list)
    for b in auts["K0B"]:
        beta0_by[after(m2["K0B->K0E"], b)].append(b)
    # beta1 . m1 = m2 . alpha0 at K0A -> K1B
    beta1_by = defaultdict(list)
    for b in auts["K1B"]:
        beta1_by[after(b, m1["K0A->K1B"])].append(b)
    # m2 . alpha1 = beta0 . m1 at K1A -> K0B
    alpha1_by = defaultdict(list)
    for a in auts["K1A"]:
        alpha1_by[after(m2["K1A->K0B"], a)].append(a)
    for a0 in auts["K0A"]:
        for left in iota0_by_pi0.get(after(a0, m1["K0E->K0A"]), ()):
            for b0 in beta0_by.get(left, ()):
                for b1 in beta1_by.get(after(m2["K0A->K1B"], a0), ()):
                    for a1 in alpha1_by.get(after(b0, m1["K1A->K0B"]), ()):
                        if (after(m2["K1B->K1E"], b1),
                                after(a1, m1["K1E->K1A"])) in eta1_keys:
                            return True
    return False


def ext_orbit_bruteforce(x) -> set[tuple[int, ...]]:
    """The orbit of x in Ext(Z/d, Z^k) = (Z/d)^k under the order
    automorphisms of the two ends, when Z/d carries every automorphism
    and Z^k its standard cone: a unit u of Z/d pulls x back to u x, and
    a permutation of Z^k pushes x to its permuted coordinates.  Every
    pair is listed directly."""
    (d,), k = x.group.source.torsion, len(x.coords)
    return {tuple(u * x.coords[i] % d for i in perm)
            for u in range(1, d) if gcd(u, d) == 1
            for perm in itertools.permutations(range(k))}

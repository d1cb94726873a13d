"""The benchmark's own checker, written without importing p5house.

Graphs are plain adjacency dicts ``{vertex: frozenset(neighbours)}``.  The
checker decides membership by exhaustive search over 5-vertex subsets (the
class forbids the induced P5 and the induced house, both on five vertices),
tests splitness and primality from their definitions, and rebuilds a
decomposition tree from its leaves by the paper's three operations.  Inputs
of the benchmark are built with it and outputs of the library are checked
against it.
"""

from __future__ import annotations

from itertools import combinations, permutations

Adj = dict[int, frozenset[int]]

# Position pairs of a 5-vertex subset, in a fixed order; bit k of a subset
# mask is the adjacency of the k-th pair.
_PAIRS5 = tuple(combinations(range(5), 2))
_PATH_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4))


def _pattern_table() -> dict[int, str]:
    """Every 10-bit mask that is a labelled P5 or house on positions 0..4."""
    bit = {p: 1 << k for k, p in enumerate(_PAIRS5)}
    full = (1 << len(_PAIRS5)) - 1
    table = {}
    for perm in permutations(range(5)):
        mask = 0
        for a, b in _PATH_EDGES:
            mask |= bit[tuple(sorted((perm[a], perm[b])))]
        table[mask] = "P5"
        table[full ^ mask] = "house"
    return table


PATTERNS = _pattern_table()


class CheckFailed(Exception):
    """An output or input failed one of the checker's tests."""


def make(vertices, edges) -> Adj:
    nb: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        if u == v or u not in nb or v not in nb:
            raise CheckFailed(f"bad edge ({u}, {v})")
        nb[u].add(v)
        nb[v].add(u)
    return {v: frozenset(s) for v, s in nb.items()}


def to_rows(g: Adj) -> tuple[int, ...]:
    """A graph on 0..n-1 as one neighbour bit mask per vertex: a compact
    form for keeping many graphs."""
    if sorted(g) != list(range(len(g))):
        raise CheckFailed("rows need the vertices 0..n-1")
    return tuple(sum(1 << w for w in g[v]) for v in range(len(g)))


def from_rows(rows) -> Adj:
    n = len(rows)
    return {v: frozenset(w for w in range(n) if r >> w & 1) for v, r in enumerate(rows)}


def edges_of(g: Adj) -> list[tuple[int, int]]:
    return sorted((u, v) for u in g for v in g[u] if u < v)


def complement(g: Adj) -> Adj:
    vs = frozenset(g)
    return {v: vs - g[v] - {v} for v in g}


def induced(g: Adj, keep) -> Adj:
    keep = frozenset(keep)
    return {v: g[v] & keep for v in keep}


def flip(g: Adj, u: int, v: int) -> Adj:
    out = dict(g)
    out[u] = g[u] ^ {v}
    out[v] = g[v] ^ {u}
    return out


def _mask5(g: Adj, five) -> int:
    mask = 0
    for k, (i, j) in enumerate(_PAIRS5):
        if five[j] in g[five[i]]:
            mask |= 1 << k
    return mask


def pattern_on(g: Adj, five) -> str | None:
    """'P5' or 'house' when the five vertices induce that pattern."""
    return PATTERNS.get(_mask5(g, five))


def find_pattern(g: Adj, pins=(), kinds=("P5", "house")) -> tuple[str, tuple[int, ...]] | None:
    """First induced pattern of the given kinds whose vertex set contains
    every pin."""
    pins = tuple(pins)
    rest = sorted(v for v in g if v not in pins)
    for others in combinations(rest, 5 - len(pins)):
        five = pins + others
        kind = PATTERNS.get(_mask5(g, five))
        if kind in kinds:
            return kind, five
    return None


def is_member(g: Adj) -> bool:
    return find_pattern(g) is None


def labelled_kinds(n: int) -> list[frozenset[str]]:
    """For every labelled graph on 0..n-1, indexed by its edge mask over
    ``combinations(range(n), 2)``, the pattern kinds it contains.

    The same 5-subset search as ``find_pattern``, on masks: each subset's
    10-bit mask is put together from two lookup tables of the graph mask's
    low and high bits."""
    pairs = list(combinations(range(n), 2))
    index = {p: k for k, p in enumerate(pairs)}
    low_bits = 8
    tables = []
    for five in combinations(range(n), 5):
        bit_of = {index[(five[i], five[j])]: k for k, (i, j) in enumerate(_PAIRS5)}

        def sub(mask, shift):
            return sum(1 << bit_of[b + shift] for b in range(mask.bit_length())
                       if mask >> b & 1 and b + shift in bit_of)
        tables.append(([sub(m, 0) for m in range(1 << low_bits)],
                       [sub(m, low_bits) for m in range(1 << max(0, len(pairs) - low_bits))]))
    none = frozenset()
    out = []
    for mask in range(1 << len(pairs)):
        lo, hi = mask & ((1 << low_bits) - 1), mask >> low_bits
        kinds = {PATTERNS.get(t_lo[lo] | t_hi[hi]) for t_lo, t_hi in tables}
        kinds.discard(None)
        out.append(frozenset(kinds) if kinds else none)
    return out


def is_split(g: Adj) -> bool:
    """Hammer-Simeone degree test, with the clique/stable split it names
    re-checked against the definition."""
    order = sorted(g, key=lambda v: -len(g[v]))
    degs = [len(g[v]) for v in order]
    m = 0
    while m < len(order) and degs[m] >= m:
        m += 1
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return False
    clique, stable = set(order[:m]), set(order[m:])
    if any(clique - {v} - g[v] for v in clique) or any(g[v] & stable for v in stable):
        raise CheckFailed("degree test named an invalid split")
    return True


def is_pentagon(g: Adj) -> bool:
    if len(g) != 5 or any(len(s) != 2 for s in g.values()):
        return False
    start = next(iter(g))
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for v in frontier for w in g[v] if w not in seen]
        seen.update(frontier)
    return len(seen) == 5


def homogeneous_closure(g: Adj, seed) -> frozenset[int]:
    """Smallest set containing the seed on which no outside vertex is mixed."""
    s = set(seed)
    grown = True
    while grown:
        grown = False
        for v in g:
            if v not in s and g[v] & s and not s <= g[v]:
                s.add(v)
                grown = True
    return frozenset(s)


def is_prime(g: Adj) -> bool:
    """At least three vertices and no proper homogeneous set."""
    if len(g) < 3:
        return False
    return all(len(homogeneous_closure(g, pair)) == len(g) for pair in combinations(g, 2))


# -- the paper's three operations ----------------------------------------------


def substitute(child: Adj, outer: Adj, site: int) -> Adj:
    """Replace vertex ``site`` of ``outer`` by ``child``; ``site`` may reappear
    as a vertex of the child."""
    if site not in outer or (set(child) & set(outer)) - {site}:
        raise CheckFailed("substitution site missing or vertex sets overlap")
    inner = frozenset(child)
    out = {v: (outer[v] - {site}) | (inner if site in outer[v] else frozenset())
           for v in outer if v != site}
    for v in child:
        out[v] = child[v] | (outer[site])
    return out


def unify(g1: Adj, g2: Adj, r) -> Adj:
    """Split graph unification of a composable pair with role sets ``r``
    (attributes a_set, b_set, c_set, l_set, t_set, marker_a, marker_c)."""
    a, b, c, l, t = r.a_set, r.b_set, r.c_set, r.l_set, r.t_set
    mc, ma = r.marker_c, r.marker_a
    lt = l | t

    def complete(g, xs, ys):
        return all(ys - {x} <= g[x] for x in xs)

    def anti(g, xs, ys):
        return all(not (g[x] & ys) for x in xs)

    conditions = [
        (bool(a) and bool(c), "A and C are nonempty"),
        (len(a) + len(b) + len(c) + len(l) + len(t) == len(a | b | c | l | t) and ma != mc,
         "role sets and markers are disjoint"),
        (set(g1) == a | l | t | {mc}, "g1 is A, L, T and its marker"),
        (set(g2) == b | c | lt | {ma}, "g2 is B, C, L, T and its marker"),
        (induced(g1, lt) == induced(g2, lt), "the factors agree on L and T"),
        (complete(g1, l, l) and anti(g1, t, t), "L is a clique and T is stable"),
        (anti(g1, a, t), "A is anti-complete to T"),
        (g1[mc] == l, "the g1 marker sees exactly L"),
        (anti(g2, t, c) and complete(g2, l, b | c), "T misses C and L sees B and C"),
        (g2[ma] == b, "the g2 marker sees exactly B"),
    ]
    for ok, what in conditions:
        if not ok:
            raise CheckFailed(f"unification: not a composable pair: {what}")
    out = {v: g1[v] - {mc} for v in a | lt}
    for v in b | c | lt:
        out[v] = out.get(v, frozenset()) | (g2[v] - {ma})
    for v in a:
        out[v] |= b
    for v in b:
        out[v] |= a
    return out


def from_graph(g) -> Adj:
    """Read any graph object that has ``vertices`` and ``edges()``."""
    return make(g.vertices, g.edges())


def tree_graph(node, path: str = "root") -> Adj:
    """Rebuild the graph of a decomposition tree from its leaves.

    Leaves must be split graphs or pentagons, internal nodes must be
    substitutions, unifications or unifications in the complement, and every
    child must be strictly smaller than its node.  Raises CheckFailed.
    """
    kind = type(node).__name__
    if kind in ("SplitLeaf", "PentagonLeaf"):
        g = from_graph(node.graph)
        if not (is_split(g) or is_pentagon(g)):
            raise CheckFailed(f"{path}: leaf is neither split nor a pentagon")
        return g
    if kind == "Subst":
        parts = (tree_graph(node.quotient, path + ".quotient"),
                 tree_graph(node.child, path + ".child"))
        g = substitute(parts[1], parts[0], node.marker)
    elif kind in ("Sgu", "CoSgu"):
        parts = (tree_graph(node.part1, path + ".part1"),
                 tree_graph(node.part2, path + ".part2"))
        g = unify(parts[0], parts[1], node.roles)
        if kind == "CoSgu":
            g = complement(g)
    else:
        raise CheckFailed(f"{path}: unknown node {kind}")
    if any(len(p) >= len(g) for p in parts):
        raise CheckFailed(f"{path}: a child does not shrink")
    return g


def tree_depth(node) -> int:
    """Depth of a tree by explicit stack (a lone leaf has depth 0)."""
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, d = stack.pop()
        deepest = max(deepest, d)
        for attr in ("quotient", "child", "part1", "part2"):
            kid = getattr(node, attr, None)
            if kid is not None:
                stack.append((kid, d + 1))
    return deepest


def tree_nodes(node) -> int:
    count, stack = 0, [node]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(k for a in ("quotient", "child", "part1", "part2")
                     if (k := getattr(node, a, None)) is not None)
    return count

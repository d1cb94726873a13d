"""The per-node recompose and verify_tree, kept as the reference that the
run composer (modular._compose) is tested against.

Every substitution node here builds its graph from its children's graphs
with a per-node substitution that lifts every adjacency mask into the
ranks of the composed graph, so a chain of substitutions costs time
quadratic in its depth.  The walker is the two-child explicit-stack fold
that recompose and verify_tree ran on before runs of substitutions became
one node.
"""

from p5house.decomposer import (
    _ROOT,
    CoSgu,
    MalformedTree,
    PentagonLeaf,
    Sgu,
    SplitLeaf,
    Subst,
    TreeReport,
    _render,
    _tree_kids,
)
from p5house.divide import ComposablePair, InvalidPair, unify
from p5house.graph import Graph


def lift(m, bits):
    out = 0
    while m:
        b = m & -m
        m ^= b
        out |= bits[b.bit_length() - 1]
    return out


def substitute(g1, g2, u):
    """Substitute g1 for the vertex u of g2, one node at a time."""
    if u not in g2:
        raise ValueError(f"substitution site {u} is not a vertex of the outer graph")
    ju = g2._pos[u]
    outer = g2._vs[:ju] + g2._vs[ju + 1 :]
    overlap = [v for v in outer if v in g1]
    if overlap:
        raise ValueError(f"vertex ids {overlap} appear in both graphs")
    vs = tuple(sorted(g1._vs + outer))
    pos = {v: i for i, v in enumerate(vs)}
    bits1 = [1 << pos[v] for v in g1._vs]
    bits2 = [1 << pos[v] if v != u else 0 for v in g2._vs]
    mu = g2._masks[ju]
    around_u = lift(mu, bits2)
    all1 = sum(bits1)
    masks = [0] * len(vs)
    for b, m in zip(bits1, g1._masks):
        masks[b.bit_length() - 1] = lift(m, bits1) | around_u
    for j, (b, m) in enumerate(zip(bits2, g2._masks)):
        if b:
            masks[b.bit_length() - 1] = lift(m, bits2) | (all1 if mu >> j & 1 else 0)
    return Graph._from_masks(vs, tuple(masks), pos)


def walk(root, ctx, down, up):
    """Fold a tree of nodes with two children into its root's value."""
    node, kids = down(root, ctx)
    if not kids:
        return up(node, ctx, ())
    ancestors = []
    values = []
    while True:
        if len(values) < 2:
            item, kid_ctx = kids[len(values)]
            kid, grandkids = down(item, kid_ctx)
            if grandkids:
                ancestors.append((node, ctx, kids, values))
                node, ctx, kids, values = kid, kid_ctx, grandkids, []
            else:
                values.append(up(kid, kid_ctx, ()))
            continue
        value = up(node, ctx, values)
        if not ancestors:
            return value
        node, ctx, kids, values = ancestors.pop()
        values.append(value)


def _recompose_node(node, path, kids):
    if isinstance(node, (SplitLeaf, PentagonLeaf)):
        return node.graph
    if isinstance(node, Subst):
        quotient, child = kids
        if node.marker not in quotient:
            raise MalformedTree(_render(path), f"marker {node.marker} missing from quotient")
        try:
            return substitute(child, quotient, node.marker)
        except ValueError as exc:
            raise MalformedTree(_render(path), str(exc)) from exc
    if isinstance(node, (Sgu, CoSgu)):
        g1, g2 = kids
        pair = ComposablePair(g1=g1, g2=g2, roles=node.roles)
        try:
            glued = unify(pair)
        except Exception as exc:
            raise MalformedTree(_render(path), str(exc)) from exc
        return glued.complement() if isinstance(node, CoSgu) else glued
    raise MalformedTree(_render(path), f"unknown node type {type(node).__name__}")


def recompose(t):
    return walk(t, _ROOT, _tree_kids, _recompose_node)


def verify_tree(t, g):
    report = TreeReport()
    failures = report.failures

    def fail(path, reason):
        failures.append((_render(path), reason))

    def check(node, path, kids):
        if not kids:
            report._tally(node, path)
        elif None in kids:
            return None
        if isinstance(node, SplitLeaf):
            gr, cert = node.graph, node.cert
            if cert.clique | cert.stable != gr.vertex_set or cert.clique & cert.stable:
                fail(path, "certificate does not partition the leaf")
            elif not gr.is_clique(cert.clique) or not gr.is_stable(cert.stable):
                fail(path, "certificate sides are not clique/stable")
            return gr
        if isinstance(node, PentagonLeaf):
            gr, cyc = node.graph, node.cycle
            if not (
                gr.n == 5
                and set(cyc) == set(gr.vertex_set)
                and len(cyc) == 5
                and all(gr.has_edge(cyc[i], cyc[(i + 1) % 5]) for i in range(5))
                and gr.edge_count == 5
            ):
                fail(path, "leaf is not the claimed pentagon")
            return gr
        if isinstance(node, Subst):
            gq, gc = kids
            try:
                composed = substitute(gc, gq, node.marker)
            except ValueError as exc:
                fail(path, f"substitution impossible: {exc}")
                return None
            if not 2 <= gc.n <= composed.n - 1:
                fail(path, "substituted set is not proper")
        elif isinstance(node, (Sgu, CoSgu)):
            try:
                glued = unify(ComposablePair(g1=kids[0], g2=kids[1], roles=node.roles))
            except InvalidPair as exc:
                fail(path, str(exc))
                return None
            composed = glued.complement() if isinstance(node, CoSgu) else glued
        else:
            fail(path, f"unknown node type {type(node).__name__}")
            return None
        if kids[0].n >= composed.n or kids[1].n >= composed.n:
            fail(path, "children fail to shrink")
        return composed

    rebuilt = walk(t, _ROOT, _tree_kids, check)
    if rebuilt is not None and rebuilt != g:
        failures.append(("root", "recomposition does not match the input graph"))
    report.ok = not failures
    return report

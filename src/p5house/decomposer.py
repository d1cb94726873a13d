"""Recursive structure trees for class members.

decompose() rewrites a graph with no induced P5 and no induced house into a
tree whose leaves are split graphs and pentagons and whose internal nodes
are substitutions, split graph unifications, or split graph unifications in
the complement.  recompose() inverts it label-exactly; verify_tree() checks
every obligation a tree carries.  All tree walks, documents included, run
on one explicit-stack fold (_walk), clear of interpreter recursion limits.
recompose() and verify_tree() take each maximal run of substitution nodes
as one node of the walk and compose it with modular._compose, which ranks
the run's vertex ids once: a Graph is built only for the result of a run,
at a unification node, and at a leaf (which holds one already).

Branch order: split leaf, pentagon leaf, substitution, unification.  The
last branch only ever fires on prime, non-split, pentagon-free graphs, where
a member is guaranteed a decorated H6 in the graph or its complement; on a
member its absence (or any downstream construction failure) is a loud
internal error, never a silent fallback.  That branch is one function,
_unification_node, which runs skewpart's private stages on the six-tuple's
masks and makes observer events only when an observer is given.

decompose() builds first and explains on failure.  By the paper's theorem
split graphs and pentagons are members and substitution and unification
keep the class, so a finished tree whose every step was checked as it was
built (leaves by their split certificate or cycle, substitutions by strong
modules, unifications by factor's divide conditions) proves membership; a
non-member's build raises.  Around the build sits the refutation rule,
stated in the oracle's module docstring alone: its P5 scan
(oracle._p5_scan) comes first, and its rest (oracle._after_p5_scan) names
the witness only when the build raises.  The input's modular decomposition
tree is made once, where it is first read (by the P5 scan above its size
limit, else just before the build), shared by the P5 scan and the build,
and split only where it is read.  The build walks it: each node is an
induced subgraph of the input, handled on masks until it is a leaf or a
prime node, and each factor of a unification starts its own tree.  In
triple mode a member's C5 lies in a pentagon leaf, since a prime graph with
no P5 and no house that holds a C5 is that C5 (Fouquet, Discrete Math.
121, 1993).  Observer events are held during the build and handed over
once the tree is finished and accepted.

The build makes no check beyond these.  The skew-partition lemma suite
(skewpart.lemma_violations) and the usability of the maximized partition
hold on every member by the paper's lemmas; the tests check them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Union

from .graph import Graph, SplitCert, _split_cert
from .modular import _Node, _compose, _cut, _pick, _problem
from . import oracle, skewpart
from .oracle import PatternHit, PatternKind, find_special_h6
from .skewpart import CaseTag, SkewPartition, UsableCase
from .divide import ComposablePair, InvalidPair, PairRoles, build_divide, factor, unify

__all__ = [
    "DecompTree",
    "SplitLeaf",
    "PentagonLeaf",
    "Subst",
    "Sgu",
    "CoSgu",
    "NotClassMember",
    "InternalStructureError",
    "MalformedTree",
    "TreeReport",
    "decompose",
    "recompose",
    "verify_tree",
    "tree_stats",
]


class NotClassMember(Exception):
    """The input contains a forbidden induced pattern; carries the witness."""

    def __init__(self, hit: PatternHit):
        self.hit = hit
        super().__init__(
            f"not a class member: induced {hit.kind.value} at {hit.embedding}"
        )


class InternalStructureError(Exception):
    """A structure guaranteed for verified class members failed to appear.

    This cannot happen on correct inputs; it is surfaced loudly because it
    would mean either a corrupted input slipped past the oracle or a bug in
    a construction."""


class MalformedTree(Exception):
    def __init__(self, path: str, reason: str):
        self.path = path
        super().__init__(f"malformed tree at {path}: {reason}")


@dataclass(frozen=True)
class SplitLeaf:
    graph: Graph
    cert: SplitCert


@dataclass(frozen=True)
class PentagonLeaf:
    graph: Graph
    cycle: tuple[int, int, int, int, int]


@dataclass(frozen=True)
class Subst:
    quotient: "DecompTree"
    child: "DecompTree"
    marker: int


@dataclass(frozen=True)
class Sgu:
    part1: "DecompTree"
    part2: "DecompTree"
    roles: PairRoles


@dataclass(frozen=True)
class CoSgu:
    """Split graph unification carried out in the complement: the node's
    graph is the complement of the unification of its parts."""

    part1: "DecompTree"
    part2: "DecompTree"
    roles: PairRoles


DecompTree = Union[SplitLeaf, PentagonLeaf, Subst, Sgu, CoSgu]


def _pentagon_cycle(g: Graph) -> tuple[int, ...] | None:
    """Cyclic order when g is a pentagon (5 vertices, connected, 2-regular),
    starting at the least id and moving toward its smaller neighbor."""
    if g.n != 5 or any(g.degree(v) != 2 for v in g.vertices) or not g.is_connected():
        return None
    start = g.vertices[0]
    order = [start]
    prev = None
    cur = start
    for _ in range(4):
        nxt = min(v for v in g.neighbors(cur) if v != prev)
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def _induced(g: Graph, m: int) -> Graph:
    return g if m == g._full_mask() else g._induced(m)


def _leaf(g: Graph, m: int) -> SplitLeaf | PentagonLeaf | None:
    """The first two branches at G[m], the subgraph of g induced on the
    mask m: its leaf when it is split or a pentagon, else None.

    The split test and certificate are split_certificate's, read off g's
    masks, so a Graph is built only for a leaf."""
    cert = _split_cert(g, m)
    if cert is not None:
        return SplitLeaf(graph=_induced(g, m), cert=cert)
    if m.bit_count() == 5:
        h = _induced(g, m)
        cycle = _pentagon_cycle(h)
        if cycle is not None:
            return PentagonLeaf(graph=h, cycle=cycle)
    return None


def _unification_node(g: Graph, events):
    """The last branch, at a prime node: the unification step, giving a
    unification's constructor with its two factors, each the root item of
    its own build, which finishes only if it is a member.  Both are smaller
    than g: the divide conditions ask for |A|, |C| >= 2.

    The step builds from g's decorated H6, working in the complement, or
    else from its complement's, working in g: one construction, since a
    member's decorated H6 always gives one.  skewpart's private stages
    re-check nothing; on a non-member's hit one may raise, which ends the
    build.  A six-tuple on the anti-component side is on the component
    side of the complement under the swapped partition, whose masks
    classification has taken: the divide is taken there, and the node's
    side flips.  Observer events are made only when ``events`` collects
    them."""
    co_g = g.complement()
    for co, host, work in ((True, g, co_g), (False, co_g, g)):
        hit = find_special_h6(host)
        if hit is not None:
            break
    else:
        raise InternalStructureError(
            "no decorated H6 in a prime non-split member or its complement"
        )
    x, y = skewpart._maximize(work, *skewpart._construct_on(work, hit))
    dm = skewpart._decompose(work, x, y)
    i, swapped = skewpart._classify(work, dm)
    if swapped is not None:
        if events is not None:
            d = dm.sets(work)
            sp = SkewPartition(x=work._set_of(x), y=work._set_of(y))
            case = UsableCase(tag=CaseTag.CASE4, decomposition=d, special_index=i)
            events.append(("on_skew_decomposition", (work, sp, d, case)))
        (work, dm), x, y, co = swapped, y, x, not co
    d = dm.sets(work)
    case = UsableCase(tag=CaseTag.CASE3, decomposition=d, special_index=i)
    divide = build_divide(work, case)
    pair = factor(work, divide)
    if events is not None:
        sp = SkewPartition(x=work._set_of(x), y=work._set_of(y))
        events.append(("on_skew_decomposition", (work, sp, d, case)))
        events.append(("on_factor", (work, divide, pair)))
    kids = tuple(((h, _Node(h._full_mask())), None) for h in (pair.g1, pair.g2))
    return partial(CoSgu if co else Sgu, roles=pair.roles), kids


def _build(g: Graph, events, cycles: list, root: _Node) -> DecompTree:
    """Build g's tree in preorder, in one walk over (host, node) items: a
    node of host's modular decomposition tree (modular._Node), standing for
    host induced on the node's mask.  One decomposition tree serves a whole
    host; its modules are split only where the walk reads them, never
    inside a leaf.

    An item becomes its leaf when it is split or a pentagon; else a
    substitution along the homogeneous set find_proper_homogeneous_set
    picks (modular._pick), whose quotient's and child's trees modular._cut
    gives, the quotient built first; else, at a prime node, a unification
    node, whose two factors start new hosts.  The cycles of g's own
    pentagon leaves go into ``cycles``.  ``root`` is g's decomposition
    tree.  Raises at a prime node that no unification step takes apart,
    which a member never has."""

    def expand(item, _):
        host, node = item
        m = node.mask
        leaf = _leaf(host, m)
        if leaf is not None:
            if host is g and type(leaf) is PentagonLeaf:
                cycles.append(leaf.cycle)
            return leaf, ()
        pick = _pick(host, node)
        if pick is None:
            return _unification_node(_induced(host, m), events)
        child, quotient, marker = _cut(host, node, *pick)
        marker = host.vertices[marker.bit_length() - 1]
        return partial(Subst, marker=marker), (((host, quotient), None), ((host, child), None))

    return _walk((g, root), None, expand, _assemble)


def decompose(g: Graph, triple: bool = False, observer=None) -> DecompTree:
    """Decompose a class member into a structure tree.

    A non-member raises NotClassMember carrying the refuting pattern: the
    same first hit as first_forbidden(g, triple), by the oracle's rule
    (see its module docstring): its P5 scan before the build, over the
    decomposition tree the build walks, and its rest only if the build
    raises.  The finished tree proves membership (see the module
    docstring); if the rule finds no witness, the build's own exception
    propagates, since g is a member.  With ``triple`` a member is refuted
    by the least cycle of its pentagon leaves outside any unification, the
    only places a member holds a C5.

    The optional observer receives on_skew_decomposition(work, sp, d,
    case) and on_factor(work, divide, pair) callbacks, in pipeline order,
    once the tree is finished and accepted, so a non-member gets none.
    """
    hit, nodes, root = oracle._p5_scan(g)
    if hit is not None:
        raise NotClassMember(hit)
    events = None if observer is None else []
    cycles: list = []
    try:
        tree = _build(g, events, cycles, root or _Node(g._full_mask()))
    except Exception:  # a non-member's build may fail at any stage of a step
        hit = oracle._after_p5_scan(nodes, oracle._FORBIDDEN)
        if hit is None:
            raise
        raise NotClassMember(hit) from None
    if triple and cycles:
        raise NotClassMember(PatternHit(kind=PatternKind.C5, embedding=min(cycles)))
    for method, args in events or ():
        fn = getattr(observer, method, None)
        if fn is not None:
            fn(*args)
    return tree


_LEAVES = (SplitLeaf, PentagonLeaf)


def _walk(root, ctx, down, up):
    """Fold a tree into its root's value on an explicit stack.  down(item,
    ctx), called in preorder, checks an item and gives the node it stands
    for and its children as (item, context) pairs, or none for a leaf;
    up(node, ctx, values), in postorder, combines the children's values.
    A split or pentagon leaf goes straight to up(leaf, ctx, ()).
    A context is anything down hands down: the walks over a tree use a
    (label, parent, payload) chain that _render turns into a path such as
    "root.quotient.child", the payload a depth or a document's graph;
    generate uses a bare depth."""
    if type(root) in _LEAVES:
        return up(root, ctx, ())
    node, kids = down(root, ctx)
    if not kids:
        return up(node, ctx, ())
    ancestors = []
    rest, values = iter(kids), []
    while True:
        for item, kid_ctx in rest:
            if type(item) in _LEAVES:
                values.append(up(item, kid_ctx, ()))
                continue
            kid, grandkids = down(item, kid_ctx)
            if grandkids:
                ancestors.append((node, ctx, rest, values))
                node, ctx, rest, values = kid, kid_ctx, iter(grandkids), []
                break
            values.append(up(kid, kid_ctx, ()))
        else:
            value = up(node, ctx, values)
            if not ancestors:
                return value
            node, ctx, rest, values = ancestors.pop()
            values.append(value)


def _render(ctx) -> str:
    labels = []
    while ctx is not None:
        labels.append(ctx[0])
        ctx = ctx[1]
    return "".join(reversed(labels))


_ROOT = ("root", None, 0)


def _assemble(node, ctx, values):
    """The bottom-up hook of the walks that build a tree, whose top-down
    hook gives a finished leaf or an internal node's constructor."""
    return node(*values) if values else node


def _tree_kids(node, path):
    """The top-down hook of the walks over a tree: an internal node and its
    children, each with its path label and depth.  Types are matched
    exactly, quicker than isinstance on a walk's many nodes."""
    kind = type(node)
    depth = path[2] + 1
    if kind is Subst:
        kids = (node.quotient, (".quotient", path, depth)), (node.child, (".child", path, depth))
    elif kind is Sgu or kind is CoSgu:
        kids = (node.part1, (".part1", path, depth)), (node.part2, (".part2", path, depth))
    else:
        kids = ()
    return node, kids


def _run_kids(node, path):
    """The top-down hook of recompose and verify_tree.  A maximal run of
    substitution nodes (a substitution and every substitution directly
    below it) is one node over its frontier, the leaves and unification
    nodes where the run stops.  The node is (the run's substitutions for
    modular._compose; the same, each as its node and path; the frontier in
    order, each leaf with its path and None for any other node), and its
    children are the frontier's other nodes with their paths, so the walk
    meets no leaf of a run.  Any other node is _tree_kids'."""
    if type(node) is not Subst:
        return _tree_kids(node, path)
    subs, substs, frontier, kids = [], [], [], []
    stack = [(node, path, None, 0)]
    while stack:
        node, path, parent, part = stack.pop()
        kind = type(node)
        if kind is Subst:
            if parent is not None:
                parent[part] = -len(subs)
            record = [node.marker, 0, 0]
            subs.append(record)
            substs.append((node, path))
            depth = path[2] + 1
            stack.append((node.child, (".child", path, depth), record, 2))
            stack.append((node.quotient, (".quotient", path, depth), record, 1))
        else:
            parent[part] = len(frontier)
            if kind is SplitLeaf or kind is PentagonLeaf:
                frontier.append((node, path))
            else:
                frontier.append(None)
                kids.append((node, path))
    return (subs, substs, frontier), kids


_BRANCH = {"quotient": 0, "child": 1, "part1": 0, "part2": 1}


def _postorder(path: str) -> list[int]:
    """Sort key that puts nodes in postorder by their paths."""
    return [_BRANCH[label] for label in path.split(".")[1:]] + [2]


def _recompose_node(node, path, kids):
    """recompose's bottom-up hook: a node's graph, or the MalformedTree of
    the first node in postorder that does not compose, handed up as a value
    so that a run can tell whether one of its own substitutions fails
    first."""
    kind = type(node)
    if kind is tuple:  # a run of substitutions
        subs, substs, frontier = node
        rest = iter(kids)
        graphs = [next(rest) if item is None else item[0].graph for item in frontier]
        checks, g = _compose(subs, graphs)
        if g is not None:
            return g
        errors = [value for value in kids if type(value) is not Graph]
        for i, overlap, _, _ in checks:
            if overlap is None or overlap:
                sub, sub_path = substs[i]
                reason = (f"marker {sub.marker} missing from quotient" if overlap is None
                          else _problem(sub.marker, overlap))
                errors.append(MalformedTree(_render(sub_path), reason))
        return min(errors, key=lambda err: _postorder(err.path))
    if kind is SplitLeaf or kind is PentagonLeaf:
        return node.graph
    if kind is Sgu or kind is CoSgu:
        for value in kids:
            if type(value) is not Graph:
                return value
        try:
            glued = unify(ComposablePair(g1=kids[0], g2=kids[1], roles=node.roles))
        except Exception as exc:
            err = MalformedTree(_render(path), str(exc))
            err.__cause__ = exc
            return err
        return glued.complement() if kind is CoSgu else glued
    return MalformedTree(_render(path), f"unknown node type {kind.__name__}")


def recompose(t: DecompTree) -> Graph:
    """Rebuild the graph a tree stands for, label-exactly.

    Leaves are taken as-is (their certificates are verify_tree's business).
    Each maximal run of substitution nodes is composed at once
    (modular._compose): its frontier's vertex ids are ranked once, and a
    graph is built only for the run's result, so a chain of substitutions
    costs time linear in its size.  A unification node glues its parts'
    graphs (complemented for CoSgu).  Structural problems raise
    MalformedTree with the path of the first failing node in postorder."""
    kind = type(t)
    if kind is SplitLeaf or kind is PentagonLeaf:  # the commonest tree, off the walk
        return t.graph
    g = _walk(t, _ROOT, _run_kids, _recompose_node)
    if type(g) is not Graph:
        raise g
    return g


@dataclass
class TreeReport:
    ok: bool = True
    failures: list[tuple[str, str]] = field(default_factory=list)
    depth: int = 0
    leaf_counts: dict[str, int] = field(default_factory=lambda: {"split": 0, "pentagon": 0})

    def _tally(self, node, path) -> None:
        """Count a node without children into the depth and leaf counts."""
        self.depth = max(self.depth, path[2])
        if isinstance(node, SplitLeaf):
            self.leaf_counts["split"] += 1
        elif isinstance(node, PentagonLeaf):
            self.leaf_counts["pentagon"] += 1


def tree_stats(t: DecompTree) -> tuple[int, dict[str, int]]:
    """(depth, leaf counts by kind); a lone leaf has depth 0."""
    report = TreeReport()
    _walk(t, _ROOT, _tree_kids, lambda node, path, kids: kids or report._tally(node, path))
    return report.depth, report.leaf_counts


def verify_tree(t: DecompTree, g: Graph) -> TreeReport:
    """Re-check every obligation of a tree against its claimed graph.

    Verifies the recomposition equals g label-exactly, every split leaf's
    certificate, every pentagon leaf's cyclic order, every substitution
    node's proper substituted set (a module by construction), every
    unification node's pair conditions, and strict shrinking at internal
    nodes.  Failures are report entries (path, message), in the postorder
    of their nodes; nothing raises.  The depth and leaf counts come from
    the same walk.

    Substitutions are checked on vertex sets, a run of them at a time
    (modular._compose): the marker lies in the quotient, the rest of the
    quotient and the child share no id, the child is proper, and both
    children are smaller than the result.  A graph is built only for the
    parts of a unification node and for the final comparison with g.
    """
    report = TreeReport()
    failures = report.failures

    def fail(path, reason: str) -> None:
        failures.append((_render(path), reason))

    def leaf(node, path) -> Graph:
        report._tally(node, path)
        gr = node.graph
        if type(node) is SplitLeaf:
            cert = node.cert
            try:
                clique, stable = gr._mask_of(cert.clique), gr._mask_of(cert.stable)
            except ValueError:  # an id outside the leaf
                clique = stable = -1
            if clique | stable != gr._full_mask() or clique & stable:
                fail(path, "certificate does not partition the leaf")
            elif not gr._clique(clique) or not gr._stable(stable):
                fail(path, "certificate sides are not clique/stable")
            return gr
        cyc = node.cycle
        if not (
            gr.n == 5
            and set(cyc) == set(gr.vertex_set)
            and len(cyc) == 5
            and all(gr.has_edge(cyc[i], cyc[(i + 1) % 5]) for i in range(5))
            and gr.edge_count == 5
        ):
            fail(path, "leaf is not the claimed pentagon")
        return gr

    def check(node, path, kids) -> Graph | None:
        kind = type(node)
        if kind is SplitLeaf or kind is PentagonLeaf:
            return leaf(node, path)
        if kind is tuple:  # a run of substitutions
            subs, substs, frontier = node
            rest = iter(kids)
            graphs = [next(rest) if item is None else leaf(*item) for item in frontier]
            checks, composed = _compose(subs, graphs)
            for i, overlap, q, c in checks:
                sub, sub_path = substs[i]
                if overlap is None or overlap:
                    fail(sub_path, f"substitution impossible: {_problem(sub.marker, overlap)}")
                    continue
                qn, cn = q.bit_count(), c.bit_count()
                n = qn + cn - 1
                if not 2 <= cn <= n - 1:
                    fail(sub_path, "substituted set is not proper")
                if qn >= n or cn >= n:
                    fail(sub_path, "children fail to shrink")
            return composed
        if kind is Sgu or kind is CoSgu:
            if None in kids:
                return None
            try:
                glued = unify(ComposablePair(g1=kids[0], g2=kids[1], roles=node.roles))
            except InvalidPair as exc:
                fail(path, str(exc))
                return None
            composed = glued.complement() if kind is CoSgu else glued
            if kids[0].n >= composed.n or kids[1].n >= composed.n:
                fail(path, "children fail to shrink")
            return composed
        report._tally(node, path)
        fail(path, f"unknown node type {kind.__name__}")
        return None

    rebuilt = _walk(t, _ROOT, _run_kids, check)
    if len(failures) > 1:  # a run's substitutions are checked after its whole frontier
        failures.sort(key=lambda failure: _postorder(failure[0]))
    if rebuilt is not None and rebuilt != g:
        failures.append(("root", "recomposition does not match the input graph"))
    report.ok = not failures
    return report

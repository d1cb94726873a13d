"""Exhaustive sweeps over all labeled graphs on few vertices.

The sweep is the equivalence check between the grammar and the oracle:
every member must decompose, verify, and recompose label-exactly, and every
non-member must be rejected with a witness.  A sweep (run_sweep) visits
every labelled graph on up to max_n vertices.  extend_members enumerates
the (n+1)-vertex members as extensions of the n-vertex ones instead, which
keeps the acceptance suite's seven-vertex pass affordable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from .graph import Graph
from .oracle import PatternKind, find_induced, is_class_member, validate_hit
from .modular import find_proper_homogeneous_set
from .decomposer import NotClassMember, SplitLeaf, Subst, decompose, verify_tree

__all__ = ["SweepRow", "SweepResult", "pair_table", "labeled_graphs", "graph_from_pair_mask", "run_sweep"]


def pair_table(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6 column order; bit k of an edge mask is pair k."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def graph_from_pair_mask(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> Graph:
    pairs = pairs if pairs is not None else pair_table(n)
    edges = []
    while mask:
        b = mask & -mask
        mask ^= b
        edges.append(pairs[b.bit_length() - 1])
    return Graph(range(n), edges)


def labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on vertices 0..n-1."""
    pairs = pair_table(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_pair_mask(n, mask, pairs)


@dataclass
class SweepRow:
    n: int
    total: int = 0
    members: int = 0
    split_members: int = 0
    prime_members: int = 0
    pentagon_members: int = 0
    mismatches: list[str] = field(default_factory=list)


@dataclass
class SweepResult:
    rows: list[SweepRow]

    @property
    def mismatch_count(self) -> int:
        return sum(len(r.mismatches) for r in self.rows)


def run_sweep(
    max_n: int,
    triple: bool = False,
    observer=None,
    on_member: Callable[[Graph, object], None] | None = None,
) -> SweepResult:
    """Check grammar/oracle equivalence over all labeled graphs up to max_n.

    Per graph, decompose (with the given observer) settles membership:
    one P5 scan of the whole graph, then the build, whose finished tree
    certifies a member; only a failed build (or, in triple mode, a
    pentagon leaf) leads to the witness, first_forbidden's own.  A
    NotClassMember marks a non-member, and its witness must induce the
    pattern it names; members must decompose and pass verify_tree, which
    also checks that the tree recomposes to g label-exactly.  The tree's
    root tells whether a member is split (a split leaf) and, unless it is
    split, whether it is prime (a pentagon or unification root).  In triple
    mode no pentagon leaf may appear.  Returns per-n counts plus mismatch
    descriptions.
    """
    rows = []
    for n in range(max_n + 1):
        row = SweepRow(n=n)
        for g in labeled_graphs(n):
            row.total += 1
            try:
                tree = decompose(g, triple=triple, observer=observer)
            except NotClassMember as exc:
                if not validate_hit(g, exc.hit):
                    row.mismatches.append(f"n={n}: bad witness {exc.hit} on {g.edges()}")
                continue
            except Exception as exc:
                row.members += 1
                row.mismatches.append(f"n={n}: decompose failed on member {g.edges()}: {exc}")
                continue
            row.members += 1
            if isinstance(tree, SplitLeaf):
                row.split_members += 1
                if find_proper_homogeneous_set(g) is None:
                    row.prime_members += 1
            elif not isinstance(tree, Subst):
                row.prime_members += 1
            if find_induced(g, PatternKind.C5) is not None:
                row.pentagon_members += 1
            report = verify_tree(tree, g)
            if not report.ok:
                row.mismatches.append(f"n={n}: verify failed on {g.edges()}: {report.failures[:1]}")
                continue
            if triple and report.leaf_counts.get("pentagon"):
                row.mismatches.append(f"n={n}: pentagon leaf in triple mode on {g.edges()}")
                continue
            if on_member is not None:
                on_member(g, tree)
        rows.append(row)
    return SweepResult(rows=rows)


def extend_members(n: int, base_masks: list[int]) -> Iterator[Graph]:
    """All (n+1)-vertex members, derived from the n-vertex member masks.

    Precondition: every mask in ``base_masks`` is the edge mask of a
    member on 0..n-1, in pair_table(n)'s bit order.  Every member on n+1
    vertices restricts to a member on the first n, so attaching the new
    vertex to each base member in all 2^n ways covers the class.  Any P5
    or house in an extension then passes through the new vertex, so the
    whole-graph membership test decides exactly what a search pinned to
    the new vertex would.
    """
    pairs = pair_table(n + 1)
    for base in base_masks:
        for att in range(1 << n):
            mask = base | att << (n * (n - 1) // 2)
            g = graph_from_pair_mask(n + 1, mask, pairs)
            if is_class_member(g):
                yield g

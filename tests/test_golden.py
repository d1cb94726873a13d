"""Golden digests of decompose's output: tree documents, witnesses and the
observer events of the unification pipeline.

A change that claims to keep every tree, document and witness is held to it
here: the digests below were computed before the decorated-H6 search and
the unification pipeline moved onto bitmasks, and that move kept them;
the events digest was computed before the pipeline stopped re-checking
what its own stages had just built.  The generated corpus changed when
generate stopped redrawing a substitution with a one-vertex part, so its
documents and events digests were recomputed then; the labelled one held.
When an intended change of output moves them, recompute them and say why
in the change's notes.
"""

import hashlib

from p5house.census import labeled_graphs
from p5house.decomposer import NotClassMember, decompose
from p5house.generator import GenConfig, generate
from p5house.treedoc import tree_to_document

# sha256 over the corpora below, in order.
GENERATED_DIGEST = "62bb29821df830dfd6161d7a0d27a438840df35449192a5dbf7c6d5a48f2e44c"
LABELLED_DIGEST = "e9f3c08925bab3dd8c7cdbdb3048f9b98f3f6ef46238cc5703c8b5e121a87ece"


def digest(graphs):
    """sha256 of each graph's tree document, or of repr(NotClassMember.hit)
    for a non-member, one per line; also the counts of both kinds."""
    h = hashlib.sha256()
    members = non_members = 0
    for g in graphs:
        try:
            tree = decompose(g)
        except NotClassMember as exc:
            h.update(repr(exc.hit).encode() + b"\n")
            non_members += 1
            continue
        h.update(tree_to_document(tree, g).encode())
        members += 1
    return h.hexdigest(), members, non_members


def test_generated_members():
    # seeds 0..299 give 11 CoSgu and 14 Sgu nodes
    graphs = (generate(GenConfig(seed=s, max_depth=3))[0] for s in range(300))
    assert digest(graphs) == (GENERATED_DIGEST, 300, 0)


def test_labelled_graphs_up_to_five_vertices():
    graphs = (g for n in range(6) for g in labeled_graphs(n))
    assert digest(graphs) == (LABELLED_DIGEST, 980, 120)


# sha256 of the observer events decompose emits over both corpora above.
EVENTS_DIGEST = "0ae5be00698a6cf14eb9597f0fc265b84545bf7ad0a4fcb34cb2739e31e0387a"


def _sets(*sets):
    return tuple(tuple(sorted(s)) for s in sets)


def _graph(g):
    return tuple(g.vertices), tuple(sorted(g.edges()))


class _EventLog:
    """Hashes each on_skew_decomposition / on_factor event as it arrives,
    every vertex set sorted, every graph as its ids and sorted edges."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.events = 0

    def _put(self, *fields):
        self.sha.update(repr(fields).encode() + b"\n")
        self.events += 1

    def on_skew_decomposition(self, work, sp, d, case):
        self._put(
            "skew", _graph(work), _sets(sp.x, sp.y), _sets(*d.x_parts), _sets(*d.y_parts),
            _sets(d.s, d.k), _sets(*d.s_mixed), _sets(*d.k_mixed),
            case.tag.value, case.special_index, _sets(*case.decomposition.x_parts),
        )

    def on_factor(self, work, divide, pair):
        r = pair.roles
        self._put(
            "factor", _graph(work), _sets(divide.a, divide.b, divide.c, divide.l, divide.t),
            _graph(pair.g1), _graph(pair.g2),
            _sets(r.a_set, r.b_set, r.c_set, r.l_set, r.t_set), r.marker_a, r.marker_c,
        )


def test_observer_events():
    """The unification pipeline's events, in order, on every member of the
    generated and labelled corpora (the labelled graphs are too small to
    take the unification branch, so they add only graph separators)."""
    log = _EventLog()
    graphs = [generate(GenConfig(seed=s, max_depth=3))[0] for s in range(300)]
    graphs += [g for n in range(6) for g in labeled_graphs(n)]
    for g in graphs:
        try:
            decompose(g, observer=log)
        except NotClassMember:
            pass
        log.sha.update(b"--\n")
    assert (log.sha.hexdigest(), log.events) == (EVENTS_DIGEST, 50)

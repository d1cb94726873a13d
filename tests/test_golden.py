"""Golden digests of decompose's output: tree documents and witnesses.

A change that claims to keep every tree, document and witness is held to it
here: the digests below were computed before the decorated-H6 search and
the unification pipeline moved onto bitmasks, and that move kept them.
When an intended change of output moves them, recompute them and say why
in the change's notes.
"""

import hashlib

from p5house.census import labeled_graphs
from p5house.decomposer import NotClassMember, decompose
from p5house.generator import GenConfig, generate
from p5house.treedoc import tree_to_document

# sha256 over the corpora below, in order.
GENERATED_DIGEST = "0d509b7a15a94485b310e2187a6d5a8b32b25639eb2672caea0366892c118a3d"
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
    # seeds 0..299 give 14 CoSgu and 12 Sgu nodes
    graphs = (generate(GenConfig(seed=s, max_depth=3))[0] for s in range(300))
    assert digest(graphs) == (GENERATED_DIGEST, 300, 0)


def test_labelled_graphs_up_to_five_vertices():
    graphs = (g for n in range(6) for g in labeled_graphs(n))
    assert digest(graphs) == (LABELLED_DIGEST, 980, 120)

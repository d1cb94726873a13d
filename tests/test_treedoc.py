"""The tree document against reference implementations.

The references are the writer and reader the library had before both moved
onto the decomposer's one tree walk: the writer builds a nested dict
recursively and hands it to json.dumps, and the reader recurses and
rebuilds every child graph from edge lists.  The library must give the
same bytes, the same trees and the same error messages.  The intended
differences: a unification marker that is one of the node's role vertices
is rejected when read, where the reference read a merged or self-looped
graph, and so is a version of true or 1.0, which the reference read as 1.
"""

import json
import random
import sys

import pytest

from p5house.census import labeled_graphs
from p5house.cli import main
from p5house.decomposer import (
    CoSgu,
    PentagonLeaf,
    Sgu,
    SplitLeaf,
    Subst,
    decompose,
    recompose,
)
from p5house.divide import PairRoles
from p5house.generator import GenConfig, generate
from p5house.graph import Graph, SplitCert
from p5house.graph6 import emit_graph6, parse_graph6
from p5house.oracle import is_class_member
from p5house.treedoc import VERSION, TreeDocumentError, document_to_tree, tree_to_document

from test_decomposer import edgeless_leaf

# -- reference writer ------------------------------------------------------------


def ref_node_to_json(node):
    if isinstance(node, SplitLeaf):
        obj = {"kind": "split_leaf", "clique": sorted(node.cert.clique),
               "stable": sorted(node.cert.stable)}
        return obj, node.graph.vertex_set
    if isinstance(node, PentagonLeaf):
        return {"kind": "pentagon_leaf", "cycle": list(node.cycle)}, node.graph.vertex_set
    if isinstance(node, Subst):
        quotient, q_set = ref_node_to_json(node.quotient)
        child, c_set = ref_node_to_json(node.child)
        obj = {"kind": "subst", "members": sorted(c_set), "marker": node.marker,
               "children": [quotient, child]}
        return obj, c_set | (q_set - {node.marker})
    r = node.roles
    obj = {
        "kind": "sgu" if isinstance(node, Sgu) else "cosgu",
        "a": sorted(r.a_set), "b": sorted(r.b_set), "c": sorted(r.c_set),
        "l": sorted(r.l_set), "t": sorted(r.t_set),
        "marker_a": r.marker_a, "marker_c": r.marker_c,
        "children": [ref_node_to_json(node.part1)[0], ref_node_to_json(node.part2)[0]],
    }
    return obj, r.a_set | r.b_set | r.c_set | r.l_set | r.t_set


def ref_tree_to_document(tree, root_graph):
    doc = {"version": VERSION, "rootGraph": emit_graph6(root_graph),
           "vertexIds": list(root_graph.vertices), "node": ref_node_to_json(tree)[0]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- reference reader ------------------------------------------------------------


def _bad_field(obj, key, path, want):
    if key not in obj:
        return TreeDocumentError(f"{path}: missing field {key!r}")
    return TreeDocumentError(f"{path}.{key}: not {want}")


def _int(obj, key, path):
    value = obj.get(key)
    if type(value) is not int:
        raise _bad_field(obj, key, path, "an integer")
    return value


def _id_list(obj, key, path):
    value = obj.get(key)
    if type(value) is not list or any(type(v) is not int for v in value):
        raise _bad_field(obj, key, path, "a list of integer ids")
    return value


def _children(obj, path, what):
    kids = obj.get("children")
    if type(kids) is not list or len(kids) != 2:
        raise TreeDocumentError(f"{path}: {what} node needs two children")
    return kids


def ref_node_from_json(obj, g, path="node"):
    if not (isinstance(obj, dict) and "kind" in obj):
        raise TreeDocumentError(f"{path}: node without a kind")
    kind = obj["kind"]
    if kind == "split_leaf":
        clique = frozenset(_id_list(obj, "clique", path))
        stable = frozenset(_id_list(obj, "stable", path))
        return SplitLeaf(graph=g, cert=SplitCert(clique=clique, stable=stable))
    if kind == "pentagon_leaf":
        return PentagonLeaf(graph=g, cycle=tuple(_id_list(obj, "cycle", path)))
    if kind == "subst":
        members = frozenset(_id_list(obj, "members", path))
        marker = _int(obj, "marker", path)
        if not members:
            raise TreeDocumentError(f"{path}: empty substitution members")
        if not members <= g.vertex_set:
            raise TreeDocumentError(f"{path}: substitution members outside the node graph")
        kids = _children(obj, path, "substitution")
        child_g = g.induced(members)
        outside = [v for v in g.vertices if v not in members]
        if marker in outside:
            raise TreeDocumentError(f"{path}: marker collides with an outside vertex")
        probe = min(members)
        q_edges = [(a, b) for a, b in g.edges() if a not in members and b not in members]
        q_edges += [(v, marker) for v in outside if g.has_edge(v, probe)]
        quotient_g = Graph(outside + [marker], q_edges)
        quotient = ref_node_from_json(kids[0], quotient_g, path + ".children[0]")
        child = ref_node_from_json(kids[1], child_g, path + ".children[1]")
        return Subst(quotient=quotient, child=child, marker=marker)
    if kind in ("sgu", "cosgu"):
        roles = PairRoles(
            a_set=frozenset(_id_list(obj, "a", path)),
            b_set=frozenset(_id_list(obj, "b", path)),
            c_set=frozenset(_id_list(obj, "c", path)),
            l_set=frozenset(_id_list(obj, "l", path)),
            t_set=frozenset(_id_list(obj, "t", path)),
            marker_a=_int(obj, "marker_a", path),
            marker_c=_int(obj, "marker_c", path),
        )
        work = g.complement() if kind == "cosgu" else g
        all_roles = roles.a_set | roles.b_set | roles.c_set | roles.l_set | roles.t_set
        if all_roles != work.vertex_set:
            raise TreeDocumentError(f"{path}: role sets do not cover the node graph")
        kids = _children(obj, path, "unification")
        g1_core = roles.a_set | roles.l_set | roles.t_set
        g1 = Graph(list(g1_core) + [roles.marker_c],
                   work.induced(g1_core).edges() + [(roles.marker_c, v) for v in roles.l_set])
        g2_core = roles.b_set | roles.c_set | roles.l_set | roles.t_set
        g2 = Graph(list(g2_core) + [roles.marker_a],
                   work.induced(g2_core).edges() + [(roles.marker_a, v) for v in roles.b_set])
        part1 = ref_node_from_json(kids[0], g1, path + ".children[0]")
        part2 = ref_node_from_json(kids[1], g2, path + ".children[1]")
        node_cls = Sgu if kind == "sgu" else CoSgu
        return node_cls(part1=part1, part2=part2, roles=roles)
    raise TreeDocumentError(f"{path}: unknown node kind {kind!r}")


def ref_document_to_tree(text):
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise TreeDocumentError("document is not an object")
    version = doc.get("version")
    if version != VERSION:
        raise TreeDocumentError(f"unsupported document version {version!r}")
    for key in ("rootGraph", "vertexIds", "node"):
        if key not in doc:
            raise TreeDocumentError(f"missing field {key!r}")
    if not isinstance(doc["rootGraph"], str):
        raise TreeDocumentError("rootGraph is not a string")
    base = parse_graph6(doc["rootGraph"])
    ids = _id_list(doc, "vertexIds", "document")
    if len(ids) != base.n or len(set(ids)) != base.n:
        raise TreeDocumentError("vertexIds do not match the graph")
    remap = dict(enumerate(ids))
    root = Graph(ids, [(remap[u], remap[v]) for u, v in base.edges()])
    return ref_node_from_json(doc["node"], root), root


# -- helpers -----------------------------------------------------------------------


MARKER_IN_ROLES = "a marker collides with a role vertex"


def read(reader, text):
    """(tree, root graph), or the message of the error the reader raised."""
    try:
        return reader(text)
    except (TreeDocumentError, ValueError) as exc:
        return str(exc)


def assert_same_reading(text):
    new = read(document_to_tree, text)
    ref = read(ref_document_to_tree, text)
    if isinstance(new, str) and new.endswith(": " + MARKER_IN_ROLES):
        # the reference read such a node, or hit a self-loop at the marker
        assert not isinstance(ref, str) or ref.startswith("self-loop at vertex"), ref
        return new
    assert new == ref
    return new


def member_documents():
    """The documents of every labelled member with n <= 6."""
    for n in range(7):
        for g in labeled_graphs(n):
            if is_class_member(g):
                yield tree_to_document(decompose(g), g)


def generated(count):
    return [generate(GenConfig(seed=s, max_depth=3)) for s in range(count)]


def nested_chain(depth):
    """A substitution tree whose quotients nest ``depth`` deep: each level
    substitutes {0, new vertex} for vertex 0."""
    t = edgeless_leaf([0, 1])
    for i in range(depth):
        t = Subst(quotient=t, child=edgeless_leaf([0, 10_000 + i]), marker=0)
    return t


# -- writer ------------------------------------------------------------------------


class TestWriter:
    def test_generated_members_match_the_reference(self):
        for g, t in generated(300):
            for tree in (t, decompose(g)):
                assert tree_to_document(tree, g) == ref_tree_to_document(tree, g)

    def test_root_graph_escaped_as_json(self):
        # graph6 uses the characters 63..126, among them the backslash
        g = parse_graph6("C\\")
        assert "\\" in emit_graph6(g)
        text = tree_to_document(decompose(g), g)
        assert text == ref_tree_to_document(decompose(g), g)
        assert document_to_tree(text)[1] == g

    def test_deeper_than_the_recursion_limit(self):
        t = nested_chain(600)
        g = recompose(t)
        text = tree_to_document(t, g)
        with pytest.raises(RecursionError):
            ref_tree_to_document(t, g)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert text == ref_tree_to_document(t, g)
        finally:
            sys.setrecursionlimit(limit)


# -- reader ------------------------------------------------------------------------


FOREIGN = 123_456


def doc_nodes(doc):
    out, stack = [], [doc["node"]]
    while stack:
        obj = stack.pop()
        out.append(obj)
        if isinstance(obj, dict) and isinstance(obj.get("children"), list):
            stack.extend(obj["children"])
    return out


def mutate(rng, text):
    """The document with one field of one node dropped, retyped or
    pointed at an id outside the tree."""
    doc = json.loads(text)
    obj = rng.choice(doc_nodes(doc))
    key = rng.choice(sorted(obj))
    how = rng.randrange(3)
    if how == 0:
        del obj[key]
    elif how == 1:
        obj[key] = rng.choice(["7", 1.5, None, True, {}, [0, "1"], 3, []])
    elif isinstance(obj[key], list) and key != "children":
        obj[key] = obj[key] + [FOREIGN]
    elif isinstance(obj[key], int):
        obj[key] = FOREIGN
    else:
        obj[key] = "sgu" if key == "kind" else [{}]
    return json.dumps(doc)


class TestReader:
    def test_labelled_members_match_the_reference(self):
        count = 0
        for text in member_documents():
            assert not isinstance(assert_same_reading(text), str)
            count += 1
        assert count == 20_308

    def test_generated_members_match_the_reference(self):
        for g, t in generated(300):
            tree, root = assert_same_reading(tree_to_document(t, g))
            assert (tree, root) == (t, g)

    def test_mutations_match_the_reference(self):
        rng = random.Random(6)
        texts = [tree_to_document(t, g) for g, t in generated(120)]
        errors = set()
        for _ in range(600):
            got = assert_same_reading(mutate(rng, rng.choice(texts)))
            if isinstance(got, str):
                errors.add(got.partition(": ")[2])
        assert len(errors) >= 8

    def test_unification_marker_in_the_roles_rejected(self):
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])
        doc = json.loads(tree_to_document(decompose(g), g))
        node = doc["node"]
        assert node["kind"] in ("sgu", "cosgu")
        for role in "abclt":
            for marker in ("marker_a", "marker_c"):
                for v in node[role]:
                    bad = json.loads(json.dumps(doc))
                    bad["node"][marker] = v
                    with pytest.raises(TreeDocumentError) as err:
                        document_to_tree(json.dumps(bad))
                    assert str(err.value) == "node: " + MARKER_IN_ROLES

    def test_unification_marker_in_the_roles_exits_2(self, tmp_path, capsys):
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])
        doc = json.loads(tree_to_document(decompose(g), g))
        doc["node"]["marker_c"] = doc["node"]["a"][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err == "error: node: " + MARKER_IN_ROLES + "\n"


# -- the reader's fallbacks --------------------------------------------------------
# The writer always uses a substitution's least member as its marker and lists
# the root's ids in ascending order; the reader takes other documents by
# building graphs the slower way, and must still agree with the reference.


def renamed(obj, old, new):
    """A copy of the subtree ``obj`` with the id ``old`` replaced by ``new``."""
    if isinstance(obj, list):
        return [renamed(item, old, new) for item in obj]
    if isinstance(obj, dict):
        return {key: renamed(value, old, new) for key, value in obj.items()}
    return new if obj == old and type(obj) is int else obj


class TestReaderFallbacks:
    def test_substitution_marker_other_than_the_least_member(self):
        read_back, collisions = 0, set()
        for g, t in generated(80):
            text = tree_to_document(t, g)
            for at, node in enumerate(doc_nodes(json.loads(text))):
                if node["kind"] != "subst":
                    continue
                old = node["marker"]
                outsiders = [v for v in g.vertices if v not in node["members"]]
                for new in node["members"][1:2] + outsiders[:2] + [FOREIGN]:
                    doc = json.loads(text)
                    bad = doc_nodes(doc)[at]
                    bad["marker"] = new
                    bad["children"][0] = renamed(bad["children"][0], old, new)
                    got = assert_same_reading(json.dumps(doc))
                    if isinstance(got, str):
                        collisions.add(got.partition(": ")[2])
                    elif recompose(got[0]) == g:
                        read_back += 1
        assert read_back >= 200
        assert collisions == {"marker collides with an outside vertex"}

    def test_vertex_ids_out_of_order(self):
        rng = random.Random(11)
        count = 0
        for g, t in generated(80):
            if g.n < 2:
                continue
            order = list(g.vertices)
            while order == sorted(order):
                rng.shuffle(order)
            rank = {v: p for p, v in enumerate(order)}
            doc = json.loads(tree_to_document(t, g))
            doc["vertexIds"] = order
            # ids and graph permuted together: the same graph
            doc["rootGraph"] = emit_graph6(Graph(range(g.n), [(rank[u], rank[v]) for u, v in g.edges()]))
            assert assert_same_reading(json.dumps(doc)) == (t, g)
            # the ids alone: another graph on the same ids
            doc["rootGraph"] = emit_graph6(g)
            assert not isinstance(assert_same_reading(json.dumps(doc)), str)
            # a repeated id
            doc["vertexIds"] = order[1:2] + order[1:]
            assert assert_same_reading(json.dumps(doc)) == "vertexIds do not match the graph"
            count += 1
        assert count >= 60

"""Lossless JSON serialization of decomposition trees.

A document stores the root graph (graph6 plus the sorted id list mapping
positions back to ids) and the recursive node structure: each internal node
records only its role vertex ids, so leaf graphs are re-derived top-down
when parsing.  The version field is mandatory and checked exactly.
"""

from __future__ import annotations

import json

from .graph import Graph, SplitCert
from .graph6 import emit_graph6, parse_graph6
from .decomposer import CoSgu, DecompTree, PentagonLeaf, Sgu, SplitLeaf, Subst
from .divide import PairRoles

__all__ = ["TreeDocumentError", "tree_to_document", "document_to_tree", "VERSION"]

VERSION = 1


class TreeDocumentError(ValueError):
    pass


def _ids(vs) -> list[int]:
    return sorted(vs)


def _node_to_json(node: DecompTree) -> tuple[dict, frozenset[int]]:
    """The node's JSON object and the vertex set of the graph it stands for,
    built bottom-up so that a substitution node reads its members off its
    child's set."""
    if isinstance(node, SplitLeaf):
        obj = {
            "kind": "split_leaf",
            "clique": _ids(node.cert.clique),
            "stable": _ids(node.cert.stable),
        }
        return obj, node.graph.vertex_set
    if isinstance(node, PentagonLeaf):
        return {"kind": "pentagon_leaf", "cycle": list(node.cycle)}, node.graph.vertex_set
    if isinstance(node, Subst):
        quotient, q_set = _node_to_json(node.quotient)
        child, c_set = _node_to_json(node.child)
        obj = {
            "kind": "subst",
            "members": _ids(c_set),
            "marker": node.marker,
            "children": [quotient, child],
        }
        return obj, c_set | (q_set - {node.marker})
    kind = "sgu" if isinstance(node, Sgu) else "cosgu"
    r = node.roles
    obj = {
        "kind": kind,
        "a": _ids(r.a_set),
        "b": _ids(r.b_set),
        "c": _ids(r.c_set),
        "l": _ids(r.l_set),
        "t": _ids(r.t_set),
        "marker_a": r.marker_a,
        "marker_c": r.marker_c,
        "children": [_node_to_json(node.part1)[0], _node_to_json(node.part2)[0]],
    }
    return obj, r.a_set | r.b_set | r.c_set | r.l_set | r.t_set


def tree_to_document(tree: DecompTree, root_graph: Graph) -> str:
    doc = {
        "version": VERSION,
        "rootGraph": emit_graph6(root_graph),
        "vertexIds": list(root_graph.vertices),
        "node": _node_to_json(tree)[0],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise TreeDocumentError(what)


def _bad_field(obj: dict, key: str, path: str, want: str) -> TreeDocumentError:
    if key not in obj:
        return TreeDocumentError(f"{path}: missing field {key!r}")
    return TreeDocumentError(f"{path}.{key}: not {want}")


def _int(obj: dict, key: str, path: str) -> int:
    value = obj.get(key)
    if type(value) is not int:
        raise _bad_field(obj, key, path, "an integer")
    return value


_INT = frozenset({int})


def _id_list(obj: dict, key: str, path: str) -> list[int]:
    value = obj.get(key)
    if type(value) is not list or not _INT.issuperset(map(type, value)):
        raise _bad_field(obj, key, path, "a list of integer ids")
    return value


def _children(obj: dict, path: str, what: str) -> list:
    kids = obj.get("children")
    if type(kids) is not list or len(kids) != 2:
        raise TreeDocumentError(f"{path}: {what} node needs two children")
    return kids


def _node_from_json(obj: dict, g: Graph, path: str = "node") -> DecompTree:
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
        for v in outside:
            if g.has_edge(v, probe):
                q_edges.append((v, marker))
        quotient_g = Graph(outside + [marker], q_edges)
        try:
            quotient = _node_from_json(kids[0], quotient_g, path + ".children[0]")
            child = _node_from_json(kids[1], child_g, path + ".children[1]")
        except RecursionError:
            raise _too_deep(path) from None
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
        g1 = Graph(
            list(g1_core) + [roles.marker_c],
            work.induced(g1_core).edges() + [(roles.marker_c, v) for v in roles.l_set],
        )
        g2_core = roles.b_set | roles.c_set | roles.l_set | roles.t_set
        g2 = Graph(
            list(g2_core) + [roles.marker_a],
            work.induced(g2_core).edges() + [(roles.marker_a, v) for v in roles.b_set],
        )
        node_cls = Sgu if kind == "sgu" else CoSgu
        try:
            part1 = _node_from_json(kids[0], g1, path + ".children[0]")
            part2 = _node_from_json(kids[1], g2, path + ".children[1]")
        except RecursionError:
            raise _too_deep(path) from None
        return node_cls(part1=part1, part2=part2, roles=roles)
    raise TreeDocumentError(f"{path}: unknown node kind {kind!r}")


def _too_deep(path: str) -> TreeDocumentError:
    """A tree nested past the interpreter's recursion limit, reported at the
    deepest node read."""
    return TreeDocumentError(f"{path}: the tree nests too deeply to read")


def document_to_tree(text: str) -> tuple[DecompTree, Graph]:
    """Parse a document back into (tree, root graph)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeDocumentError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise TreeDocumentError("the document nests too deeply to parse as JSON") from None
    _require(isinstance(doc, dict), "document is not an object")
    version = doc.get("version")
    if version != VERSION:
        raise TreeDocumentError(f"unsupported document version {version!r}")
    for key in ("rootGraph", "vertexIds", "node"):
        _require(key in doc, f"missing field {key!r}")
    _require(isinstance(doc["rootGraph"], str), "rootGraph is not a string")
    base = parse_graph6(doc["rootGraph"])
    ids = _id_list(doc, "vertexIds", "document")
    _require(len(ids) == base.n and len(set(ids)) == base.n, "vertexIds do not match the graph")
    remap = dict(enumerate(ids))  # graph6 position -> stored vertex id
    root = Graph(ids, [(remap[u], remap[v]) for u, v in base.edges()])
    tree = _node_from_json(doc["node"], root)
    return tree, root

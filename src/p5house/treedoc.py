"""Lossless JSON serialization of decomposition trees.

A document stores the root graph (graph6 plus the sorted id list mapping
positions back to ids) and the node structure: each internal node records
only its role vertex ids, so the graphs below it are re-derived top-down
in the decomposer's one tree walk.  The reader holds each node as a mask
of a host graph, as decompose's build does: a substitution whose
marker is its least member (as written) hands its host to both children,
and a Graph is built only at a leaf, at a unification node and for the
quotient of a substitution with another marker.  The root takes graph6's
masks as they are when its ids ascend (as written).  A quotient's marker
attaches like the least member, a unification part's marker to L
(marker_c) or B (marker_a); a marker may be any id outside the part it
joins but no role vertex of its node.  The version field is mandatory and
checked exactly: an int equal to VERSION, so neither true nor 1.0.
"""

from __future__ import annotations

import json
from functools import partial

from .graph import Graph, SplitCert
from .graph6 import emit_graph6, parse_graph6
from .decomposer import _ROOT, CoSgu, DecompTree, PentagonLeaf, Sgu, SplitLeaf, Subst
from .decomposer import _assemble, _induced, _render, _tree_kids, _walk
from .divide import PairRoles, _factor_graphs

__all__ = ["TreeDocumentError", "tree_to_document", "document_to_tree", "VERSION"]

VERSION = 1


class TreeDocumentError(ValueError):
    pass


def _fields(node: DecompTree) -> dict:
    """A node's fields other than its children, keys in sorted order; a
    substitution's members are left None for the writer to fill in."""
    if isinstance(node, SplitLeaf):
        cert = node.cert
        return {"clique": sorted(cert.clique), "kind": "split_leaf", "stable": sorted(cert.stable)}
    if isinstance(node, PentagonLeaf):
        return {"cycle": list(node.cycle), "kind": "pentagon_leaf"}
    if isinstance(node, Subst):
        return {"kind": "subst", "marker": node.marker, "members": None}
    r = node.roles
    return {
        "a": sorted(r.a_set), "b": sorted(r.b_set), "c": sorted(r.c_set),
        "kind": "sgu" if isinstance(node, Sgu) else "cosgu", "l": sorted(r.l_set),
        "marker_a": r.marker_a, "marker_c": r.marker_c, "t": sorted(r.t_set),
    }


def _entry(key: str, value, pad: str) -> str:
    """One field as json.dumps(indent=2) lays it out, ``pad`` being the
    newline and indent of its line."""
    if type(value) is str:
        value = json.dumps(value)
    elif type(value) is list:
        inner = pad + "  "
        value = "[" + inner + ("," + inner).join(map(str, value)) + pad + "]" if value else "[]"
    return f'{pad}"{key}": {value}'


def tree_to_document(tree: DecompTree, root_graph: Graph) -> str:
    """The document of a tree: json.dumps(doc, indent=2, sort_keys=True)'s
    bytes, emitted in one walk.  A node at depth d opens at indent 2 + 4d,
    its fields two further in, the children after a unification's a, b, c.
    An internal node opens in down, where its fields are built once, and
    reaches up with them; a leaf is written whole in up.  A node's value is
    its vertex set, a substitution's members its child's."""
    out = ['{\n  "node": ']

    def place(path) -> None:
        depth = path[2]
        if depth:
            out.append((",\n" if path[0] in (".child", ".part2") else "\n") + " " * (2 + 4 * depth))

    def down(node, path):
        node, kids = _tree_kids(node, path)
        place(path)
        fields = _fields(node)
        pad = "\n" + " " * (4 + 4 * path[2])
        before = (_entry(k, v, pad) + "," for k, v in fields.items() if k < "children")
        out.append("{" + "".join(before) + pad + '"children": [')
        return (node, fields), kids

    def up(item, path, kids) -> frozenset[int]:
        pad = "\n" + " " * (4 + 4 * path[2])
        if kids:
            node, fields = item
        else:
            place(path)
            node, fields = item, _fields(item)
        subst = type(node) is Subst
        if subst:
            fields["members"] = sorted(kids[1])
        after = [_entry(k, v, pad) for k, v in fields.items() if not kids or k > "children"]
        out.append((pad + "]," if kids else "{") + ",".join(after) + pad[:-2] + "}")
        if subst:
            return kids[1] | (kids[0] - {node.marker})
        if kids:
            r = node.roles
            return r.a_set | r.b_set | r.c_set | r.l_set | r.t_set
        return node.graph.vertex_set

    _walk(tree, _ROOT, down, up)
    top = (("rootGraph", emit_graph6(root_graph)), ("version", VERSION),
           ("vertexIds", list(root_graph.vertices)))
    out.extend("," + _entry(key, value, "\n  ") for key, value in top)
    return "".join(out) + "\n}\n"


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise TreeDocumentError(what)


def _error(ctx, what: str) -> TreeDocumentError:
    return TreeDocumentError(f"{_render(ctx)}: {what}")


def _bad_field(obj: dict, key: str, ctx, want: str) -> TreeDocumentError:
    if key not in obj:
        return _error(ctx, f"missing field {key!r}")
    return TreeDocumentError(f"{_render(ctx)}.{key}: not {want}")


def _int(obj: dict, key: str, ctx) -> int:
    value = obj.get(key)
    if type(value) is not int:
        raise _bad_field(obj, key, ctx, "an integer")
    return value


_INT = frozenset({int})


def _id_list(obj: dict, key: str, ctx) -> list[int]:
    value = obj.get(key)
    if type(value) is not list or not _INT.issuperset(map(type, value)):
        raise _bad_field(obj, key, ctx, "a list of integer ids")
    return value


def _children(obj: dict, ctx, what: str) -> list:
    kids = obj.get("children")
    if type(kids) is not list or len(kids) != 2:
        raise _error(ctx, f"{what} node needs two children")
    return kids


_ROLES = ("a", "b", "c", "l", "t")


def _paired(kids: list, ctx, first: tuple, second: tuple) -> tuple:
    return (kids[0], (".children[0]", ctx, first)), (kids[1], (".children[1]", ctx, second))


def _whole(g: Graph) -> tuple[Graph, int]:
    return g, g._full_mask()


def _read_down(obj, ctx):
    """The reader's top-down hook: check a node's fields and give a leaf, or
    an internal node's constructor and its children's contexts, whose
    payload (host, mask) stands for the host's subgraph induced on mask."""
    if not (isinstance(obj, dict) and "kind" in obj):
        raise _error(ctx, "node without a kind")
    kind = obj["kind"]
    host, mask = ctx[2]
    if kind == "split_leaf":
        clique = frozenset(_id_list(obj, "clique", ctx))
        stable = frozenset(_id_list(obj, "stable", ctx))
        cert = SplitCert(clique=clique, stable=stable)
        return SplitLeaf(graph=_induced(host, mask), cert=cert), ()
    if kind == "pentagon_leaf":
        cycle = tuple(_id_list(obj, "cycle", ctx))
        return PentagonLeaf(graph=_induced(host, mask), cycle=cycle), ()
    if kind == "subst":
        members = _id_list(obj, "members", ctx)
        marker = _int(obj, "marker", ctx)
        if not members:
            raise _error(ctx, "empty substitution members")
        try:
            inside = host._mask_of(members)
        except ValueError:  # an id outside the host, so outside the mask
            inside = -1
        if inside & ~mask:
            raise _error(ctx, "substitution members outside the node graph")
        kids = _children(obj, ctx, "substitution")
        outside = mask & ~inside
        at = host._pos.get(marker)
        if at is not None and outside >> at & 1:
            raise _error(ctx, "marker collides with an outside vertex")
        least = inside & -inside
        if at == least.bit_length() - 1:
            # the quotient collapses the members onto the least of them
            quotient = host, outside | least
        else:
            attach = outside & host._masks[least.bit_length() - 1]  # like the least member
            quotient = _whole(host._induced(outside, marker, attach))
        return partial(Subst, marker=marker), _paired(kids, ctx, quotient, (host, inside))
    if kind in ("sgu", "cosgu"):
        sets = [frozenset(_id_list(obj, key, ctx)) for key in _ROLES]
        roles = PairRoles(*sets, _int(obj, "marker_a", ctx), _int(obj, "marker_c", ctx))
        g = _induced(host, mask)
        work = g.complement() if kind == "cosgu" else g
        try:
            a, b, c, l, t = (work._mask_of(obj[key]) for key in _ROLES)
            covered = a | b | c | l | t == work._full_mask()
        except ValueError:
            covered = False
        if not covered:
            raise _error(ctx, "role sets do not cover the node graph")
        kids = _children(obj, ctx, "unification")
        if roles.marker_a in work or roles.marker_c in work:
            raise _error(ctx, "a marker collides with a role vertex")
        part1, part2 = _factor_graphs(work, a, b, c, l, t, roles.marker_a, roles.marker_c)
        node_cls = Sgu if kind == "sgu" else CoSgu
        return partial(node_cls, roles=roles), _paired(kids, ctx, _whole(part1), _whole(part2))
    raise _error(ctx, f"unknown node kind {kind!r}")


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
    if type(version) is not int or version != VERSION:
        raise TreeDocumentError(f"unsupported document version {version!r}")
    for key in ("rootGraph", "vertexIds", "node"):
        _require(key in doc, f"missing field {key!r}")
    _require(isinstance(doc["rootGraph"], str), "rootGraph is not a string")
    base = parse_graph6(doc["rootGraph"])
    ids = _id_list(doc, "vertexIds", ("document", None, None))
    unique = set(ids)
    _require(len(ids) == base.n and len(unique) == base.n, "vertexIds do not match the graph")
    if ids == sorted(unique):  # as written: graph6 positions are the ids' ranks
        root = Graph._from_masks(tuple(ids), base._masks)
    else:
        remap = dict(enumerate(ids))  # graph6 position -> stored vertex id
        root = Graph(ids, [(remap[u], remap[v]) for u, v in base.edges()])
    tree = _walk(doc["node"], ("node", None, _whole(root)), _read_down, _assemble)
    return tree, root

"""Command-line interface.

Exit codes: 0 success, 1 semantic failure (non-member, failed verification,
census mismatch), 2 input/parse errors, 3 internal errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph import Graph
from .graph6 import Graph6Error, emit_graph6, read_graph_text
from .oracle import first_forbidden
from .decomposer import (
    InternalStructureError,
    MalformedTree,
    NotClassMember,
    decompose,
    recompose,
    verify_tree,
)
from .generator import GenConfig, generate
from .treedoc import TreeDocumentError, document_to_tree, tree_to_document
from . import census as census_mod

__all__ = ["main"]

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str | None) -> Graph:
    return read_graph_text(_read_input(path))


def _witness_line(hit) -> str:
    return f"non-member: induced {hit.kind.value} at {hit.embedding}"


def cmd_recognize(args) -> int:
    g = _load_graph(args.input)
    hit = first_forbidden(g, triple=args.triple)
    if hit is None:
        print("member")
        return EXIT_OK
    print(_witness_line(hit))
    return EXIT_SEMANTIC


def cmd_decompose(args) -> int:
    g = _load_graph(args.input)
    try:
        tree = decompose(g, triple=args.triple)
    except NotClassMember as exc:
        print(_witness_line(exc.hit), file=sys.stderr)
        return EXIT_SEMANTIC
    report = verify_tree(tree, g)
    if not report.ok:
        print(f"internal: tree failed verification: {report.failures[0]}", file=sys.stderr)
        return EXIT_INTERNAL
    doc = tree_to_document(tree, g)
    if args.out:
        Path(args.out).write_text(doc)
    else:
        sys.stdout.write(doc)
    leaves = report.leaf_counts
    print(f"depth {report.depth}, split leaves {leaves['split']}, "
          f"pentagon leaves {leaves['pentagon']}", file=sys.stderr)
    return EXIT_OK


def cmd_recompose(args) -> int:
    tree, root = document_to_tree(_read_input(args.tree))
    g = recompose(tree)
    if g != root:
        print("document root graph disagrees with its tree", file=sys.stderr)
        return EXIT_SEMANTIC
    print(emit_graph6(g))
    return EXIT_OK


def cmd_verify(args) -> int:
    tree, root = document_to_tree(_read_input(args.tree))
    report = verify_tree(tree, root)
    if report.ok:
        print("ok")
        return EXIT_OK
    for path, reason in report.failures:
        print(f"fail {path}: {reason}")
    return EXIT_SEMANTIC


def _parse_weights(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        out[name.strip()] = float(value)
    return out


def cmd_generate(args) -> int:
    weights = _parse_weights(args.weights) if args.weights else None
    outdir = Path(args.out) if args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        cfg_kwargs = dict(
            seed=args.seed + i,
            max_depth=args.depth,
            leaf_size=(args.leaf_min, args.leaf_max),
        )
        if weights is not None:
            cfg_kwargs["weights"] = weights
        graph, tree = generate(GenConfig(**cfg_kwargs))
        print(emit_graph6(graph))
        if outdir is not None:
            (outdir / f"sample_{i:04d}.json").write_text(tree_to_document(tree, graph))
    return EXIT_OK


def cmd_census(args) -> int:
    result = census_mod.run_sweep(args.max_n, triple=args.triple)
    print("n    graphs   members  split    prime    pentagon mismatches")
    for row in result.rows:
        print(
            f"{row.n:<4} {row.total:<8} {row.members:<8} {row.split_members:<8} "
            f"{row.prime_members:<8} {row.pentagon_members:<8} {len(row.mismatches)}"
        )
    for row in result.rows:
        for msg in row.mismatches[:10]:
            print(f"mismatch: {msg}", file=sys.stderr)
    return EXIT_OK if result.mismatch_count == 0 else EXIT_SEMANTIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p5house",
        description="Recognize, decompose, and synthesize graphs with no "
        "induced four-edge path and no induced house.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="test class membership")
    p.add_argument("input", nargs="?", help="graph6 or edge-list file (default stdin)")
    p.add_argument("--triple", action="store_true", help="also forbid the pentagon")
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("decompose", help="decompose a member into a tree document")
    p.add_argument("input", nargs="?")
    p.add_argument("--out", help="write the tree document here instead of stdout")
    p.add_argument("--triple", action="store_true")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("recompose", help="rebuild the graph of a tree document")
    p.add_argument("tree", help="tree document file (default stdin with -)")
    p.set_defaults(fn=cmd_recompose)

    p = sub.add_parser("verify", help="re-check every obligation of a tree document")
    p.add_argument("tree")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", help="emit random class members with their trees")
    p.add_argument("--seed", type=int, required=True, help="base seed; sample i uses seed+i")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--leaf-min", type=int, default=1)
    p.add_argument("--leaf-max", type=int, default=6)
    p.add_argument("--weights", help="e.g. split=3,pentagon=1,subst=3,sgu=2,cosgu=2")
    p.add_argument("--out", help="directory for per-sample tree documents")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("census", help="sweep all labeled graphs up to a size")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--triple", action="store_true")
    p.set_defaults(fn=cmd_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Graph6Error, TreeDocumentError, MalformedTree, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalStructureError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

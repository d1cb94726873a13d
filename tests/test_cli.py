import json
import sys
import time

import pytest

from p5house import treedoc
from p5house.cli import main
from p5house.graph import Graph, cycle_graph
from p5house.graph6 import emit_graph6
from p5house.decomposer import CoSgu, Sgu, Subst, decompose, recompose, verify_tree
from p5house.generator import GenConfig, generate
from p5house.treedoc import TreeDocumentError, document_to_tree, tree_to_document

H6 = Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])


def c4_plus_universal():
    return Graph(range(5), [(0, 1), (1, 2), (2, 3), (0, 3)] + [(4, v) for v in range(4)])


def write_graph(tmp_path, g, name="g.g6"):
    p = tmp_path / name
    p.write_text(emit_graph6(g) + "\n")
    return str(p)


class TestRecognize:
    def test_c5_member(self, tmp_path, capsys):
        assert main(["recognize", write_graph(tmp_path, cycle_graph(range(5)))]) == 0
        assert capsys.readouterr().out.strip() == "member"

    def test_c5_triple_witness(self, tmp_path, capsys):
        rc = main(["recognize", "--triple", write_graph(tmp_path, cycle_graph(range(5)))])
        assert rc == 1
        assert "C5" in capsys.readouterr().out

    def test_p5_witness_positions(self, tmp_path, capsys):
        from p5house.graph import path_graph

        rc = main(["recognize", write_graph(tmp_path, path_graph(range(5)))])
        assert rc == 1
        assert "(0, 1, 2, 3, 4)" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.g6"
        bad.write_text("D\n")
        assert main(["recognize", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["recognize", "/nonexistent/file.g6"]) == 2

    def test_one_scan_per_non_member(self, tmp_path, capsys, monkeypatch):
        import p5house.oracle as oracle
        from p5house.graph import path_graph

        scans = []
        real = oracle.find_induced

        def counted(g, kind):
            scans.append(kind.value)
            return real(g, kind)

        monkeypatch.setattr(oracle, "find_induced", counted)
        assert main(["recognize", write_graph(tmp_path, path_graph(range(5)))]) == 1
        assert capsys.readouterr().out == "non-member: induced P5 at (0, 1, 2, 3, 4)\n"
        assert scans == ["P5"]

    def test_chain_of_200_is_a_member(self, tmp_path, capsys):
        from test_decomposer import chain

        p = tmp_path / "chain.txt"
        p.write_text("".join(f"{u} {v}\n" for u, v in chain(200).edges()))
        assert main(["recognize", str(p)]) == 0
        assert capsys.readouterr().out == "member\n"

    def test_house_only_near_member_above_16_vertices(self, tmp_path, capsys):
        # The witness is the house the whole-graph search finds first.
        import random

        from p5house.oracle import PatternKind, find_induced
        from test_decomposer import flip, substitution_member

        rng = random.Random(917)
        while True:
            g = flip(rng, substitution_member(rng, rng.randint(17, 30)))
            g = Graph(range(g.n), [(g.vertices.index(u), g.vertices.index(v)) for u, v in g.edges()])
            house = find_induced(g, PatternKind.HOUSE)
            if house is not None and find_induced(g, PatternKind.P5) is None:
                break
        assert main(["recognize", write_graph(tmp_path, g)]) == 1
        assert capsys.readouterr().out == f"non-member: induced house at {house.embedding}\n"

    def test_edge_list_input(self, tmp_path, capsys):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 2\n2 3\n")
        assert main(["recognize", str(p)]) == 0

    def test_edge_list_past_the_graph6_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # a matching on 258,048 vertices, one more than graph6 can hold, is
        # refused at its last line before any graph is built (the spy builds
        # none either: the masks of this graph would take gigabytes)
        built = []
        monkeypatch.setattr(Graph, "__init__", lambda self, vs, es: built.append(len(vs)))
        p = tmp_path / "matching.txt"
        p.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(129_024)))
        assert main(["decompose", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 129024: more than 258047 distinct vertices\n"
        assert captured.out == ""
        assert built == []


    @pytest.mark.parametrize("text, line", [
        ("0 1\n1 2 3\n", "error: line 2: expected 'u v', got '1 2 3'"),
        ("0 1\n1 -2\n", "error: line 2: vertex ids must be nonnegative"),
    ])
    def test_edge_list_errors_exit_2(self, tmp_path, capsys, text, line):
        src = tmp_path / "g.txt"
        src.write_text(text)
        assert main(["recognize", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"


class TestDecomposeRecompose:
    def test_split_input_single_leaf(self, tmp_path, capsys):
        g = Graph(range(3), [(0, 1), (0, 2)])
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, g), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["node"]["kind"] == "split_leaf"
        assert doc["version"] == 1

    def test_h6_root_is_unification(self, tmp_path):
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, H6), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["node"]["kind"] in ("sgu", "cosgu")

    def test_non_member_exit_1(self, tmp_path, capsys):
        from p5house.graph import path_graph

        assert main(["decompose", write_graph(tmp_path, path_graph(range(5)))]) == 1

    def test_chain_past_62_vertices(self, tmp_path, capsys):
        # C4 on 0..3, then even vertices joined to every earlier vertex and
        # odd ones isolated when added: a substitution chain on 63 vertices
        n = 63
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        edges += [(u, v) for v in range(4, n, 2) for u in range(v)]
        src = tmp_path / "chain.txt"
        src.write_text("".join(f"{u} {v}\n" for u, v in edges))
        out = tmp_path / "tree.json"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rootGraph"].startswith("~??~")
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_round_trip_bytes(self, tmp_path, capsys):
        src = write_graph(tmp_path, H6)
        out = tmp_path / "tree.json"
        assert main(["decompose", src, "--out", str(out)]) == 0
        assert main(["recompose", str(out)]) == 0
        emitted = capsys.readouterr().out.strip().splitlines()[-1]
        assert emitted == emit_graph6(H6)

    def test_recompose_of_a_tree_that_does_not_glue_exits_2(self, tmp_path, capsys):
        # the H6 document with its A side moved into T reads, but its
        # unification node fails a composable-pair condition
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, H6), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        node = doc["node"]
        node["t"] = sorted(node["t"] + node["a"])
        node["a"] = []
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            "fail root: composable pair violates: A side is empty"
        )
        assert main(["recompose", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: malformed tree at root: composable pair violates: A side is empty\n"
        )


    def test_recompose_of_a_document_whose_root_graph_disagrees_exits_1(self, tmp_path, capsys):
        # the 5-cycle with vertex 0 doubled by its true twin 5, then the
        # pair (2, 5) flipped in the document's root graph only
        g = Graph(range(6), cycle_graph(range(5)).edges() + [(0, 5), (1, 5), (4, 5)])
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, g), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["node"]["kind"] == "subst" and doc["node"]["members"] == [0, 5]
        doc["rootGraph"] = emit_graph6(Graph(g.vertices, set(g.edges()) ^ {(2, 5)}))
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["recompose", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "document root graph disagrees with its tree\n"
        assert main(["verify", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "fail root: recomposition does not match the input graph\n"
        assert captured.err == ""


class TestVerifyCommand:
    def test_ok(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        main(["decompose", write_graph(tmp_path, H6), "--out", str(out)])
        assert main(["verify", str(out)]) == 0

    def test_subst_without_members_exits_2(self, tmp_path, capsys):
        g = c4_plus_universal()
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, g), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["node"]["kind"] == "subst"
        del doc["node"]["members"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert "node: missing field 'members'" in capsys.readouterr().err

    def test_subst_with_empty_members_exits_2(self, tmp_path, capsys):
        g = c4_plus_universal()
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, g), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["node"]["kind"] == "subst"
        doc["node"]["members"] = []
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: node: empty substitution members\n"

    def test_tampered_document(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        main(["decompose", write_graph(tmp_path, H6), "--out", str(out)])
        doc = json.loads(out.read_text())
        doc["node"]["children"][0]["clique"] = []
        doc["node"]["children"][0]["stable"] = []
        out.write_text(json.dumps(doc))
        assert main(["verify", str(out)]) == 1


class TestInternalErrors:
    """Exit 3, one line on stderr, and no document written."""

    def test_out_of_memory(self, tmp_path, capsys, monkeypatch):
        from p5house import cli

        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(cli, "read_graph_text", exhausted)
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, H6), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "internal error: out of memory\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_internal_structure_error(self, tmp_path, capsys, monkeypatch):
        from p5house import decomposer

        monkeypatch.setattr(decomposer, "find_special_h6", lambda g: None)
        out = tmp_path / "tree.json"
        assert main(["decompose", write_graph(tmp_path, H6), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "internal error: no decorated H6 in a prime non-split member or its complement\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [True, False])
    def test_tree_failing_verification(self, tmp_path, capsys, monkeypatch, to_file):
        from p5house import cli
        from p5house.decomposer import SplitLeaf
        from p5house.graph import SplitCert

        # a split graph whose certificate puts the edge 0-1 in the stable side
        g = Graph(range(3), [(0, 1), (0, 2)])
        wrong = SplitLeaf(graph=g, cert=SplitCert(clique=frozenset({2}), stable=frozenset({0, 1})))
        monkeypatch.setattr(cli, "decompose", lambda g, triple: wrong)
        out = tmp_path / "tree.json"
        argv = ["decompose", write_graph(tmp_path, g)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == ("internal: tree failed verification: "
                                "root: certificate sides are not clique/stable\n")
        assert captured.out == ""
        assert not out.exists()


@pytest.fixture(scope="module")
def deep_document():
    """The document of a substitution tree of depth 1,100 whose quotients
    nest: each level substitutes {0, new vertex} for vertex 0."""
    from test_decomposer import edgeless_leaf

    t = edgeless_leaf([0, 1])
    for i in range(1100):
        t = Subst(quotient=t, child=edgeless_leaf([0, 10_000 + i]), marker=0)
    return tree_to_document(t, recompose(t))


class TestDeepDocument:
    def test_verify_exits_2(self, tmp_path, capsys, deep_document):
        out = tmp_path / "deep.json"
        out.write_text(deep_document)
        assert main(["verify", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: the document nests too deeply to parse as JSON\n"

    def test_reader_walks_past_the_recursion_limit(self, monkeypatch, deep_document):
        text = deep_document
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            doc = json.loads(text)
        finally:
            sys.setrecursionlimit(limit)
        # the JSON decoder nests twice per tree level, so it fails first;
        # hand the reader the decoded object, read under the default limit
        monkeypatch.setattr(treedoc.json, "loads", lambda _: doc)
        tree, root = document_to_tree(text)
        assert recompose(tree) == root
        assert verify_tree(tree, root).depth == 1100


class TestGenerate:
    def test_deterministic_output(self, tmp_path, capsys):
        argv = ["generate", "--seed", "7", "--count", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 3

    def test_writes_tree_documents(self, tmp_path, capsys):
        outdir = tmp_path / "corpus"
        assert main(["generate", "--seed", "3", "--count", "2", "--out", str(outdir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for i, line in enumerate(lines):
            tree, root = document_to_tree((outdir / f"sample_{i:04d}.json").read_text())
            assert emit_graph6(root) == line
            assert verify_tree(tree, root).ok

    def test_deep_subst_heavy_trees_finish(self, capsys):
        # half the draws below the root are substitutions: parts of one
        # vertex once made generation redraw forever, and composing the
        # graph at every node made deep trees quadratic.  Seed 0 gives
        # 1,613 vertices; the 20 samples take about a second.
        argv = ["generate", "--seed", "0", "--count", "20", "--depth", "1000",
                "--weights", "subst=1,split=1"]
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 30
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20
        root, tree = generate(GenConfig(seed=0, max_depth=1000, weights={"subst": 1, "split": 1}))
        assert emit_graph6(root) == lines[0]
        assert root.n == 1613 and verify_tree(tree, root).ok

    @pytest.mark.parametrize("weights", ["split=nan", "split=inf,subst=inf", "subst=1e308,sgu=1e308"])
    def test_non_finite_weights_exit_2(self, weights, capsys):
        assert main(["generate", "--seed", "1", "--weights", weights]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: weights and their sum must be finite\n"


class TestCensusCommand:
    def test_small_census(self, capsys):
        assert main(["census", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        # per-size graph counts 1, 1, 2, 8, 64 and zero mismatches
        rows = [ln.split() for ln in out.strip().splitlines()[1:]]
        assert [int(r[1]) for r in rows] == [1, 1, 2, 8, 64]
        assert all(int(r[-1]) == 0 for r in rows)


class TestSweep:
    def test_one_oracle_scan_per_graph(self, monkeypatch):
        import p5house.census as census
        import p5house.oracle as oracle

        p5_scans = []
        real = oracle.find_induced

        def counted(g, kind):
            if kind.value == "P5":
                p5_scans.append(g)
            return real(g, kind)

        monkeypatch.setattr(oracle, "find_induced", counted)
        monkeypatch.setattr(census, "find_induced", counted)
        result = census.run_sweep(4)
        assert result.mismatch_count == 0
        assert len(p5_scans) == sum(r.total for r in result.rows) == 1 + 1 + 2 + 8 + 64

    def test_false_witness_is_a_mismatch(self, monkeypatch):
        import p5house.census as census
        from p5house.decomposer import NotClassMember
        from p5house.oracle import PatternHit, PatternKind

        def lying(g, **_):
            raise NotClassMember(PatternHit(kind=PatternKind.P5, embedding=tuple(g.vertices)))

        monkeypatch.setattr(census, "decompose", lying)
        result = census.run_sweep(5)
        # the one graph whose witness holds: the path 0-1-2-3-4
        assert [len(r.mismatches) for r in result.rows] == [1, 1, 2, 8, 64, 1023]
        assert [r.members for r in result.rows] == [0] * 6


class TestTreeDocument:
    def test_round_trip_generated_trees(self):
        for seed in range(25):
            g, t = generate(GenConfig(seed=seed, max_depth=3, leaf_size=(1, 5)))
            doc = tree_to_document(t, g)
            t2, g2 = document_to_tree(doc)
            assert g2 == g
            assert t2 == t
            assert tree_to_document(t2, g2) == doc
            assert recompose(t2) == g

    def test_subst_marker_collision_rejected(self):
        from p5house.graph import cycle_graph
        from p5house.modular import substitute
        from p5house.decomposer import decompose

        g = substitute(Graph([10, 11], [(10, 11)]), cycle_graph(range(5)), 0)
        tree = decompose(g)
        doc = json.loads(tree_to_document(tree, g))
        assert doc["node"]["kind"] == "subst"
        outside = [v for v in g.vertices if v not in doc["node"]["members"]]
        doc["node"]["marker"] = outside[0]
        with pytest.raises(TreeDocumentError):
            document_to_tree(json.dumps(doc))

    def test_roles_must_cover_the_node(self):
        out_doc = None
        for seed in range(50):
            g, t = generate(GenConfig(seed=seed, max_depth=1, weights={"sgu": 1.0, "split": 0.5}))
            doc = json.loads(tree_to_document(t, g))
            if doc["node"]["kind"] == "sgu":
                out_doc = doc
                break
        assert out_doc is not None
        out_doc["node"]["t"] = out_doc["node"]["t"] + [99999]
        with pytest.raises(TreeDocumentError):
            document_to_tree(json.dumps(out_doc))

    def test_version_mismatch_rejected(self, tmp_path, capsys):
        # JSON's true and 1.0 compare equal to 1 in Python, but are not the
        # version: the reader and `verify` reject them like any other
        g, t = generate(GenConfig(seed=1))
        doc = json.loads(tree_to_document(t, g))
        out = tmp_path / "tree.json"
        for version in (2, True, 1.0):
            doc["version"] = version
            with pytest.raises(TreeDocumentError):
                document_to_tree(json.dumps(doc))
            out.write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["verify", str(out)]) == 2
            assert capsys.readouterr().err == f"error: unsupported document version {version!r}\n"

    def test_missing_field_rejected(self):
        with pytest.raises(TreeDocumentError):
            document_to_tree(json.dumps({"version": 1}))

    def test_subst_members_are_the_child_vertex_sets(self):
        def walk(obj, node):
            if isinstance(node, Subst):
                assert obj["members"] == sorted(recompose(node.child).vertex_set)
            for kid_obj, kid in zip(obj.get("children", ()), kids(node)):
                walk(kid_obj, kid)

        def kids(node):
            if isinstance(node, Subst):
                return node.quotient, node.child
            if isinstance(node, (Sgu, CoSgu)):
                return node.part1, node.part2
            return ()

        substs = 0
        for seed in range(60):
            g, t = generate(GenConfig(seed=seed, max_depth=4))
            for tree in (t, decompose(g)):
                doc = json.loads(tree_to_document(tree, g))
                walk(doc["node"], tree)
                substs += json.dumps(doc).count('"subst"')
        assert substs > 50

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda n: n.pop("marker"), "node: missing field 'marker'"),
            (lambda n: n.update(members=5), "node.members: not a list of integer ids"),
            (lambda n: n.update(members=["0", "1"]), "node.members: not a list of integer ids"),
            (lambda n: n.update(marker=1.5), "node.marker: not an integer"),
            (lambda n: n.update(children=[{}, {}]), "node.children[0]: node without a kind"),
            (lambda n: n["children"][0].pop("stable"), "node.children[0]: missing field 'stable'"),
            (lambda n: n["children"][0].update(clique=[True]),
             "node.children[0].clique: not a list of integer ids"),
            (lambda n: n["children"][1].update(marker=None),
             "node.children[1].marker: not an integer"),
            (lambda n: n.update(children={}), "node: substitution node needs two children"),
        ],
    )
    def test_malformed_node_names_its_path(self, edit, message):
        g = c4_plus_universal()
        doc = json.loads(tree_to_document(decompose(g), g))
        assert doc["node"]["kind"] == "subst"
        edit(doc["node"])
        with pytest.raises(TreeDocumentError) as err:
            document_to_tree(json.dumps(doc))
        assert str(err.value) == message

    def test_non_integer_vertex_ids_rejected(self):
        g, t = generate(GenConfig(seed=1))
        doc = json.loads(tree_to_document(t, g))
        doc["vertexIds"] = [str(v) for v in doc["vertexIds"]]
        with pytest.raises(TreeDocumentError):
            document_to_tree(json.dumps(doc))

    def test_garbage_rejected(self):
        with pytest.raises(TreeDocumentError):
            document_to_tree("not json at all")

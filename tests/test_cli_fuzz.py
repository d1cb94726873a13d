"""Hostile graphs through the CLI: recognize, decompose and census.

Each command runs in-process through ``cli.main`` on graph6 or edge-list
text of a graph with at most 12 vertices: a random graph, a member (a
decorated H6, a member whose unification is found on the anti-component
side, or a generated member) with its ids shuffled and maybe one pair
flipped, or such text with a run of characters replaced.  Every run must
exit 0, 1 or 2 without raising; a witness line must name an embedding of
its pattern, and a document ``decompose`` writes must pass
``p5house verify``.  Examples are bounded so that the file runs in
seconds.
"""

import ast
import contextlib
import io
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p5house.cli import main
from p5house.generator import GenConfig, generate
from p5house.graph import Graph
from p5house.graph6 import emit_graph6, read_graph_text
from p5house.oracle import PatternHit, PatternKind, validate_hit

from shared_graphs import h6
from test_decomposer import CASE4_MEMBER

FUZZ = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
MAX_N = 12

SEEDS = [h6(), CASE4_MEMBER]
SEEDS += [g for g in (generate(GenConfig(seed=s, max_depth=3))[0] for s in range(40))
          if 2 <= g.n <= MAX_N]


@st.composite
def graphs(draw):
    """A random graph, or a member relabelled and maybe with one pair
    flipped, on at most MAX_N vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(0, MAX_N))
        pairs = list(itertools.combinations(range(n), 2))
        p = draw(st.sampled_from([0.2, 0.5, 0.8]))
        bits = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
        return Graph(range(n), [e for e, b in zip(pairs, bits) if b < p])
    g = draw(st.sampled_from(SEEDS))
    ids = draw(st.permutations(range(g.n)))
    rename = dict(zip(g.vertices, ids))
    edges = {tuple(sorted((rename[u], rename[v]))) for u, v in g.edges()}
    if draw(st.booleans()):
        edges ^= {draw(st.sampled_from(list(itertools.combinations(range(g.n), 2))))}
    return Graph(range(g.n), edges)


def edge_list(g, offset):
    """The edge list of g with every id shifted by offset; it cannot name
    isolated vertices, so those are left out of the graph it reads as."""
    return "".join(f"{u + offset} {v + offset}\n" for u, v in g.edges())


@st.composite
def graph_texts(draw):
    g = draw(graphs())
    if draw(st.booleans()):
        text = emit_graph6(g) + "\n"
    else:
        text = edge_list(g, draw(st.integers(0, 5)))
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.text(max_size=6)) + text[at + draw(st.integers(0, 3)):]
    return text


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def witness(line):
    """The PatternHit that a ``non-member: induced K at (..)`` line names."""
    prefix = "non-member: induced "
    assert line.startswith(prefix), line
    kind, _, embedding = line[len(prefix):].partition(" at ")
    return PatternHit(kind=PatternKind(kind), embedding=ast.literal_eval(embedding))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@FUZZ
@given(text=graph_texts(), triple=st.booleans())
def test_recognize_and_decompose(workdir, text, triple):
    path, doc = workdir / "g.txt", workdir / "tree.json"
    path.write_text(text)
    doc.unlink(missing_ok=True)
    flag = ["--triple"] if triple else []
    code, out, _ = run("recognize", path, *flag)
    dcode, _, derr = run("decompose", path, "--out", doc, *flag)
    if code == 2:
        assert dcode == 2
        return
    g = read_graph_text(text)
    if code == 1:
        assert validate_hit(g, witness(out.strip()))
    assert dcode == code
    if dcode == 1:
        assert validate_hit(g, witness(derr.strip()))
    else:
        assert run("verify", doc)[:2] == (0, "ok\n")


@pytest.mark.parametrize("max_n", range(-1, 5))
def test_census_small_sizes(max_n):
    code, out, _ = run("census", "--max-n", max_n)
    assert code == 0
    assert len(out.splitlines()) == 1 + max(max_n + 1, 0)

"""Hostile input: the graph and document readers and the CLI on arbitrary text.

The readers may reject input only with Graph6Error, ValueError or
TreeDocumentError (each the CLI's exit 2); ``p5house verify`` and
``p5house recompose`` may only exit 0, 1 or 2 on a mutated document.
Examples are bounded so that the file runs in a few seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p5house.cli import main
from p5house.decomposer import decompose
from p5house.generator import GenConfig, generate
from p5house.graph import Graph
from p5house.graph6 import Graph6Error, emit_graph6, parse_graph6, read_graph_text
from p5house.treedoc import TreeDocumentError, document_to_tree, tree_to_document

REJECTIONS = (Graph6Error, ValueError, TreeDocumentError)
FUZZ = settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

G6_TEXT = st.text(alphabet=st.characters(min_codepoint=10, max_codepoint=130), max_size=40)
ANY_TEXT = st.text(max_size=40)


def member_documents():
    docs = []
    for seed in range(8):
        g, tree = generate(GenConfig(seed=seed, max_depth=3))
        docs.append(tree_to_document(tree, g))
    # one unification node over a decorated H6, one long-form root graph
    h6 = Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 5)])
    wide = Graph(range(70), [(i, i + 1) for i in range(0, 68, 2)])
    docs += [tree_to_document(decompose(g), g) for g in (h6, wide)]
    return docs


DOCUMENTS = member_documents()
ROOT_GRAPHS = [json.loads(doc)["rootGraph"] for doc in DOCUMENTS]
ROOT_GRAPHS += [emit_graph6(parse_graph6(text).complement()) for text in ROOT_GRAPHS]


def rejects_cleanly(reader, text):
    try:
        reader(text)
    except REJECTIONS:
        pass


@FUZZ
@given(st.one_of(G6_TEXT, ANY_TEXT))
def test_graph_readers_reject_cleanly(text):
    rejects_cleanly(parse_graph6, text)
    rejects_cleanly(read_graph_text, text)


@FUZZ
@given(st.sampled_from(DOCUMENTS), st.integers(0, 10**6), G6_TEXT, st.integers(0, 3))
def test_graph6_with_bytes_changed(doc, at, insert, cut):
    """A real graph6 line with a run of bytes replaced."""
    text = json.loads(doc)["rootGraph"]
    at %= len(text) + 1
    rejects_cleanly(parse_graph6, text[:at] + insert + text[at + cut :])


@FUZZ
@given(ANY_TEXT)
def test_document_reader_rejects_text_cleanly(text):
    rejects_cleanly(document_to_tree, text)


IDS = st.integers(-2, 75)
JSON = st.recursive(
    st.none() | st.booleans() | IDS | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
FIELD_VALUES = st.one_of(IDS, st.lists(IDS, max_size=6), JSON)


def objects(doc):
    """The document object and every dict below it."""
    out, stack = [], [doc]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            out.append(obj)
            stack.extend(obj.values())
        elif isinstance(obj, list):
            stack.extend(obj)
    return out


@st.composite
def mutated_documents(draw):
    """A member's document with one to three fields dropped, added or
    replaced, or a run of its characters replaced."""
    text = draw(st.sampled_from(DOCUMENTS))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(ANY_TEXT) + text[at + draw(st.integers(0, 3)) :]
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(st.sampled_from(objects(doc)))
        key = draw(st.sampled_from(sorted(obj) + ["kind", "extra"]))
        if key in obj and draw(st.booleans()):
            del obj[key]
        elif key == "kind":
            obj[key] = draw(st.sampled_from(["subst", "sgu", "cosgu", "split_leaf", "pentagon_leaf"]))
        elif key == "rootGraph":
            obj[key] = draw(st.sampled_from(ROOT_GRAPHS))
        else:
            obj[key] = draw(FIELD_VALUES)
    return json.dumps(doc)


@FUZZ
@given(mutated_documents())
def test_document_reader_rejects_mutations_cleanly(text):
    rejects_cleanly(document_to_tree, text)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "tree.json"


@FUZZ
@given(text=mutated_documents(), command=st.sampled_from(["verify", "recompose"]))
def test_cli_exits_0_1_or_2_on_mutated_documents(doc_path, text, command):
    doc_path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(doc_path)])
    assert code in (0, 1, 2)

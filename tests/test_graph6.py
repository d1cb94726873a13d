import itertools
import random

import pytest

from p5house.graph import Graph, complete_graph, cycle_graph, path_graph
from p5house.graph6 import (
    Graph6Error,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
    read_graph_text,
)


# -- reference codec -----------------------------------------------------------
# The codec as it was before it moved onto adjacency masks: one has_edge per
# vertex pair on the way out, one list of bits and an edge list on the way in.


def ref_pairs(n):
    return [(i, j) for j in range(1, n) for i in range(j)]


def ref_emit_graph6(g):
    n = g.n
    vs = g.vertices
    bits = [1 if g.has_edge(vs[i], vs[j]) else 0 for i, j in ref_pairs(n)]
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for at in range(0, len(bits), 6):
        val = 0
        for b in bits[at : at + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def ref_parse_graph6(s):
    """Decode a well-formed graph6 line."""
    if s[0] != "~":
        n, start = ord(s[0]) - 63, 1
    else:
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        start = 4
    bits = []
    for ch in s[start:]:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    return Graph(range(n), [pair for pair, bit in zip(ref_pairs(n), bits) if bit])


def graphs_of_every_size():
    """Every n in 0..70 and the long-form sizes 200 and 300, each empty,
    at density one half and complete, with ids spread apart."""
    rng = random.Random(6)
    for n in [*range(71), 200, 300]:
        ids = sorted(rng.sample(range(4 * n), n))
        pairs = list(itertools.combinations(ids, 2))
        yield Graph(ids)
        yield Graph(ids, [pair for pair in pairs if rng.random() < 0.5])
        yield Graph(ids, pairs)


class TestAgainstTheReference:
    def test_emit_and_parse_match_the_reference(self):
        count = 0
        for g in graphs_of_every_size():
            text = emit_graph6(g)
            assert text == ref_emit_graph6(g)
            parsed = parse_graph6(text)
            assert parsed == ref_parse_graph6(text)
            rank = {v: i for i, v in enumerate(g.vertices)}
            assert parsed == Graph(range(g.n), [(rank[u], rank[v]) for u, v in g.edges()])
            count += 1
        assert count == 3 * 73

    def test_asymmetric_graphs_pin_the_bit_order(self):
        # one edge at a time: a transposed or reversed bit order moves it
        for n in (7, 13, 63, 70):
            for u, v in [(0, 1), (0, n - 1), (1, n - 2), (n - 2, n - 1), (2, 5)]:
                g = Graph(range(n), [(u, v)])
                assert emit_graph6(g) == ref_emit_graph6(g)
                assert parse_graph6(ref_emit_graph6(g)) == g


class TestFixtures:
    # expected strings cross-checked against an independent encoder
    def test_single_vertex(self):
        assert emit_graph6(Graph([0])) == "@"
        assert parse_graph6("@") == Graph([0])

    def test_empty_graph(self):
        assert emit_graph6(Graph([])) == "?"
        assert parse_graph6("?").n == 0

    def test_k2(self):
        assert emit_graph6(complete_graph(range(2))) == "A_"
        assert parse_graph6("A_") == complete_graph(range(2))

    def test_p4(self):
        assert emit_graph6(path_graph(range(4))) == "Ch"

    def test_c5(self):
        assert emit_graph6(cycle_graph(range(5))) == "Dhc"

    def test_k4(self):
        assert emit_graph6(complete_graph(range(4))) == "C~"

    def test_emit_renumbers_sparse_ids(self):
        g = path_graph([10, 20, 30, 40])
        assert emit_graph6(g) == "Ch"


class TestRoundTrip:
    def test_random_graphs(self):
        rng = random.Random(2020)
        for _ in range(1000):
            n = rng.randint(0, 20)
            edges = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            ]
            g = Graph(range(n), edges)
            assert parse_graph6(emit_graph6(g)) == g


class TestLongForm:
    def test_size_header(self):
        # n = 63 is 000000 000000 111111 in 18 bits
        s = emit_graph6(Graph(range(63)))
        assert s == "~??~" + "?" * 326
        assert parse_graph6(s) == Graph(range(63))

    @pytest.mark.parametrize("n", [63, 100, 200])
    def test_round_trip(self, n):
        rng = random.Random(n)
        edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(range(n), edges)
        assert parse_graph6(emit_graph6(g)) == g

    @pytest.mark.parametrize("text", ["~", "~?", "~??"])
    def test_truncated_header(self, text):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(text)
        assert err.value.offset == len(text)

    def test_truncated_adjacency(self):
        s = emit_graph6(Graph(range(70)))
        with pytest.raises(Graph6Error) as err:
            parse_graph6(s[:-1])
        assert err.value.offset == len(s) - 1

    def test_eight_byte_form_rejected(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("~~??????")
        assert err.value.offset == 0

    def test_small_size_in_long_form_rejected(self):
        # K2 written with the long size field: the one-byte form is canonical
        with pytest.raises(Graph6Error) as err:
            parse_graph6("~??A_")
        assert err.value.offset == 1


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(Graph6Error):
            parse_graph6("")

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error) as err:
            parse_graph6("D c")
        assert err.value.offset == 1

    def test_truncated(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")

    def test_excess_bytes(self):
        with pytest.raises(Graph6Error):
            parse_graph6("A_?")

    def test_nonzero_padding(self):
        # K2's byte with a padding bit set: 100001 -> 33+63 = 96 = '`'
        with pytest.raises(Graph6Error) as err:
            parse_graph6("A`")
        assert "padding" in str(err.value)

    def test_header_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6(">>graph6<<A_")

    def test_too_big_to_emit(self):
        with pytest.raises(Graph6Error):
            emit_graph6(Graph(range(258_048)))


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n\n1 2\n")
        assert g == path_graph(range(3))

    def test_bad_token(self):
        with pytest.raises(ValueError) as err:
            parse_edge_list("0 x")
        assert "line 1" in str(err.value)

    def test_self_loop(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 3")

    def test_autodetect(self):
        assert read_graph_text("0 1\n1 2\n") == path_graph(range(3))
        assert read_graph_text("Ch\n") == path_graph(range(4))

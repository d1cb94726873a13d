"""graph6 encoding and the one-edge-per-line text format.

A graph6 line is the size, then the upper triangle of the adjacency matrix
column by column, six bits per byte, each byte offset by 63.  The size is one
byte n+63 for n <= 62, or ``~`` and three bytes holding n in 18 bits,
high bits first, for 63 <= n <= 258,047.  The eight-byte ``~~`` form for
larger n is not supported.  Parsing is strict: a size that fits the shorter
form must use it, and malformed input is rejected with the byte offset of
the problem.
"""

from __future__ import annotations

from .graph import Graph

__all__ = ["Graph6Error", "parse_graph6", "emit_graph6", "parse_edge_list", "read_graph_text"]


class Graph6Error(ValueError):
    def __init__(self, offset: int, reason: str):
        self.offset = offset
        super().__init__(f"graph6: {reason} (byte {offset})")


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


_LONG_MAX_N = 258_047


def _parse_size(s: str) -> tuple[int, int]:
    """The size field: (n, offset of the first adjacency byte)."""
    if s[0] != "~":
        return ord(s[0]) - 63, 1
    if s[1:2] == "~":
        raise Graph6Error(0, f"the eight-byte size form (n > {_LONG_MAX_N}) is not supported")
    if len(s) < 4:
        raise Graph6Error(len(s), "truncated long-form size")
    n = 0
    for ch in s[1:4]:
        n = n << 6 | ord(ch) - 63
    if n <= 62:
        raise Graph6Error(1, f"long-form size {n} must use the one-byte form")
    return n, 4


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a graph on vertices 0..n-1."""
    s = text.rstrip("\n")
    if not s:
        raise Graph6Error(0, "empty input")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(off, f"byte {ord(ch)} outside graph6 range")
    n, start = _parse_size(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - start != nbytes:
        raise Graph6Error(
            min(len(s), start + nbytes),
            f"expected {nbytes} adjacency bytes, got {len(s) - start}",
        )
    bits: list[int] = []
    for ch in s[start:]:
        val = ord(ch) - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for idx in range(nbits, len(bits)):
        if bits[idx]:
            raise Graph6Error(start + idx // 6, "nonzero padding bits")
    edges = [pair for pair, bit in zip(_pairs(n), bits) if bit]
    return Graph(range(n), edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph; vertex ids map to positions 0..n-1 in sorted order."""
    n = g.n
    if n > _LONG_MAX_N:
        raise Graph6Error(0, f"only graphs with n <= {_LONG_MAX_N} can be emitted")
    vs = g.vertices
    bits = [1 if g.has_edge(vs[i], vs[j]) else 0 for i, j in _pairs(n)]
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


def parse_edge_list(text: str) -> Graph:
    """Parse 'u v' pairs, one per line, 0-based ids; blank lines ignored.

    The vertex set is the union of the endpoints, so isolated vertices are
    not expressible in this format.  Use graph6 for those.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: vertex ids must be nonnegative")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
    verts = {v for e in edges for v in e}
    return Graph(verts, edges)


def read_graph_text(text: str) -> Graph:
    """Auto-detect the input format.

    Lines with two whitespace-separated tokens are an edge list (whitespace
    can never occur inside graph6); otherwise the first nonblank line is
    taken as graph6.
    """
    stripped = [ln for ln in text.splitlines() if ln.strip()]
    if not stripped:
        raise ValueError("no graph in input")
    if len(stripped[0].split()) == 2:
        return parse_edge_list(text)
    return parse_graph6(stripped[0])

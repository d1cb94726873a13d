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

from base64 import b64decode, b64encode

from .graph import Graph

__all__ = ["Graph6Error", "parse_graph6", "emit_graph6", "parse_edge_list", "read_graph_text"]


class Graph6Error(ValueError):
    def __init__(self, offset: int, reason: str):
        self.offset = offset
        super().__init__(f"graph6: {reason} (byte {offset})")


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


# The adjacency bytes are the bit string in 6-bit groups, each offset by
# 63: base64's groups with its alphabet swapped for the bytes 63..126.
_G6_BYTES = bytes(range(63, 127))
_G6_CHARS = frozenset(_G6_BYTES.decode())
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_BYTES)
_FROM_G6 = bytes.maketrans(_G6_BYTES, _B64_ALPHABET)


def _pack(bits: str) -> str:
    """The graph6 bytes of a bit string, zero-padded to whole bytes."""
    nbytes = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)  # whole base64 quanta
    raw = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return b64encode(raw).translate(_TO_G6)[:nbytes].decode("ascii")


def _unpack(body: str) -> str:
    """The bit string of graph6 bytes, six bits each."""
    quanta = body.encode("ascii").translate(_FROM_G6)
    raw = b64decode(quanta + b"A" * (-len(quanta) % 4))
    return format(int.from_bytes(raw, "big"), f"0{len(raw) * 8}b")[: 6 * len(body)]


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a graph on vertices 0..n-1."""
    s = text.rstrip("\n")
    if not s:
        raise Graph6Error(0, "empty input")
    if not _G6_CHARS.issuperset(s):
        for off, ch in enumerate(s):
            if ch not in _G6_CHARS:
                raise Graph6Error(off, f"byte {ord(ch)} outside graph6 range")
    n, start = _parse_size(s)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - start != nbytes:
        raise Graph6Error(
            min(len(s), start + nbytes),
            f"expected {nbytes} adjacency bytes, got {len(s) - start}",
        )
    bits = _unpack(s[start:])
    padding = bits.find("1", nbits)
    if padding >= 0:
        raise Graph6Error(start + padding // 6, "nonzero padding bits")
    # Column j holds the pairs (i, j), i < j: the low part of masks[j] with
    # bit i first.  Padded with zeros to n, column j's i-th character is
    # the edge (i, j) for every i, so the columns' transpose read with j
    # descending gives each vertex's neighbours above it.
    zeros = "0" * n
    cols = [bits[j * (j - 1) // 2 : j * (j + 1) // 2] + zeros[j:] for j in range(n)]
    above = map("".join, zip(*reversed(cols)))
    masks = tuple(int(col[::-1], 2) | int(row, 2) for col, row in zip(cols, above))
    return Graph._from_masks(tuple(range(n)), masks)


def emit_graph6(g: Graph) -> str:
    """Encode a graph; vertex ids map to positions 0..n-1 in sorted order."""
    n = g.n
    if n > _LONG_MAX_N:
        raise Graph6Error(0, f"only graphs with n <= {_LONG_MAX_N} can be emitted")
    if n <= 62:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    masks = g._masks
    bits = "".join([format(masks[j] & (1 << j) - 1, f"0{j}b")[::-1] for j in range(1, n)])
    return size + _pack(bits)


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

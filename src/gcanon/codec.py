"""Graph6 and Sparse6 string codecs.

Both formats pack 6-bit groups into printable bytes 63..126, and share one
packer (``_pack``) and one unpacker (``_unpack``) for the vertex-count
header and the payload alike.  Graph6 stores
the upper triangle of the adjacency matrix in column order (0,1), (0,2),
(1,2), (0,3), ...; Sparse6 starts with ':' and stores an edge stream.  The
upper-triangle bit-vector doubles as an integer sort key: the first pair is
the most significant bit, so comparing keys compares encoded strings.

``key_from_rows`` packs on one transpose (``core.transpose``), and
``encode_graph6`` is the key of the identity order.  Reversed, the key holds
column j as the j bits from j(j-1)/2 up: the lower j bits of row j.  So
``rows_from_key`` reverses the key once and ORs in the transpose of that
triangle for the upper bits; a Graph6 payload is the key and then zero
padding, read back through it.  Bytes are read and checked in order first,
so every error keeps its message and offset.

Decoding checks the header's vertex count with ``check_vertex_count``, so a
zero-vertex string fails as a zero-vertex ``Graph`` would; Sparse6 streams
that mention a loop or repeat an edge are errors rather than being simplified.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import Graph, check_vertex_count, packed_width, transpose, unpacked


class CodecError(ValueError):
    """A malformed graph string; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def triangle_bits(n: int) -> int:
    """Length of the upper-triangle bit-vector for n vertices."""
    return n * (n - 1) // 2


def key_from_rows(rows, order) -> int:
    """Pack the upper triangle of the vertices in ``order`` into an int, column order.

    The first pair is the most significant bit, so the key of ``order[:m]`` is
    the top m(m-1)/2 bits of the key of ``order``.  Row order[i] sits at row
    w-1-i of one packed matrix, w = ``packed_width(len(rows))``; in its
    transpose the top j bits of row order[j] are column j, first pair highest.
    """
    w = packed_width(len(rows))
    m = 0
    for v in order:
        m = m << w | rows[v]
    t = transpose(m << (w - len(order)) * w, w)
    key = 0
    for j, v in enumerate(order):
        key = key << j | t >> (v + 1) * w - j & (1 << j) - 1
    return key


_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse(x: int, nbits: int) -> int:
    """The nbits-bit number x with its bit order reversed."""
    nbytes = (nbits + 7) // 8
    return int.from_bytes(x.to_bytes(nbytes, "little").translate(_BIT_REVERSED), "big") >> (8 * nbytes - nbits)


def rows_from_key(n: int, key: int) -> list[int]:
    """Inverse of key_from_rows for the identity order range(n)."""
    lower = _reverse(key, triangle_bits(n))
    w = packed_width(n)
    m = 0
    for j in range(1, n):
        m |= (lower & ((1 << j) - 1)) << (j * w)
        lower >>= j
    return unpacked(m | transpose(m, w), w, n)


def _pack(x: int, nbits: int) -> str:
    """The nbits-bit number x, zero-padded on the right to whole 6-bit groups, as bytes 63..126."""
    pad = (-nbits) % 6
    x <<= pad
    return "".join([chr(63 + ((x >> shift) & 63)) for shift in range(nbits + pad - 6, -1, -6)])


def _unpack(s: str, start: int, end: int) -> int:
    """The 6-bit groups s[start:end] as one number, the first group most significant.

    A byte outside 63..126 fails at its offset; a string that ends before
    ``end`` fails at its length.
    """
    x = 0
    for ch in s[start:end]:
        value = ord(ch) - 63
        if not 0 <= value <= 63:  # the first bad byte, so its first occurrence from start
            raise CodecError(f"invalid byte {ord(ch)}", offset=s.index(ch, start))
        x = (x << 6) | value
    if end > len(s):
        raise CodecError("truncated graph string", offset=len(s))
    return x


def _encode_n(n: int) -> str:
    # 63 <= n <= 258047: '~' then 18 bits in three 6-bit groups
    return _pack(n, 6) if n <= 62 else "~" + _pack(n, 18)


def _decode_n(s: str, pos: int) -> tuple[int, int]:
    n = _unpack(s, pos, pos + 1)
    end = pos + 1
    if n == 63:
        if pos + 1 < len(s) and s[pos + 1] == "~":
            raise CodecError("8-byte vertex-count headers are not supported", offset=pos)
        n = _unpack(s, pos + 1, pos + 4)
        if n <= 62:
            raise CodecError("non-minimal vertex-count header", offset=pos)
        end = pos + 4
    check_vertex_count(n)
    return n, end


def graph6_from_key(n: int, key: int) -> str:
    """The Graph6 string of the graph on n vertices whose upper-triangle bit-vector is key."""
    return _encode_n(n) + _pack(key, triangle_bits(n))


def encode_graph6(graph: Graph) -> str:
    """The Graph6 string of a graph."""
    return graph6_from_key(graph.n, key_from_rows(graph.rows, range(graph.n)))


def encode_sparse6(graph: Graph) -> str:
    """The Sparse6 string of a graph."""
    n = graph.n
    k = max(1, (n - 1).bit_length())
    step = k + 1  # one (b, x) unit: a bit b, then k bits of x
    stream = nbits = cur = 0
    for u, v in sorted((max(e), min(e)) for e in graph.edges()):
        if u > cur + 1:  # b = 1, x = u makes u the current vertex
            stream = (stream << step) | (1 << k) | u
            nbits += step
            cur = u
        # b = 1 steps on from vertex u - 1, b = 0 stays at u
        stream = (stream << step) | ((u - cur) << k) | v
        nbits += step
        cur = u
    # 1-padding would decode as the pair (1, n-1); when n = 2^k and the
    # current vertex is n-2 that pair would emit a spurious loop, so lead the
    # padding with a harmless 0 bit.
    pad = (-nbits) % 6
    ones = pad - 1 if n == (1 << k) and cur == n - 2 and pad >= k + 1 else pad
    return ":" + _encode_n(n) + _pack((stream << pad) | ((1 << ones) - 1), nbits + pad)


def _decode_graph6(s: str) -> Graph:
    n, pos = _decode_n(s, 0)
    nbits = triangle_bits(n)
    nbytes = (nbits + 5) // 6
    if len(s) - pos > nbytes:
        raise CodecError("trailing bytes after adjacency payload", offset=pos + nbytes)
    payload = _unpack(s, pos, pos + nbytes)
    pad = 6 * nbytes - nbits
    if payload & ((1 << pad) - 1):
        raise CodecError("nonzero padding bits", offset=pos + nbytes - 1)
    return Graph(n, rows_from_key(n, payload >> pad))


def _decode_sparse6(s: str) -> Graph:
    n, pos = _decode_n(s, 1)
    k = max(1, (n - 1).bit_length())
    nbits = 6 * (len(s) - pos)
    stream = f"{_unpack(s, pos, len(s)):0{nbits}b}"
    rows = [0] * n
    v = i = 0
    while nbits - i > k:  # a whole (b, x) unit is left
        v += stream[i] == "1"
        x = int(stream[i + 1 : i + k + 1], 2)
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        elif x == v:
            raise CodecError(f"loop at vertex {v}", offset=pos + i // 6)
        elif (rows[x] >> v) & 1:
            raise CodecError(f"repeated edge {{{x}, {v}}}", offset=pos + i // 6)
        else:
            rows[x] |= 1 << v
            rows[v] |= 1 << x
        i += k + 1
    if "0" in stream[i + 1 :]:  # valid padding is all 1s, optionally led by one 0
        message = "edge data past the declared vertex count" if nbits - i > k else "trailing garbage after edge stream"
        raise CodecError(message, offset=pos + i // 6)
    return Graph(n, tuple(rows))


def strip_line_end(s: str) -> str:
    """``s`` without one trailing LF or CR LF; any other trailing byte stays."""
    return s[:-2] if s.endswith("\r\n") else s.removesuffix("\n")


def decode(s: str) -> Graph:
    """Decode a Graph6 or Sparse6 string (detected by the ':' prefix).

    A single trailing newline, LF or CR LF, is tolerated; any other stray
    byte is an error reported with its offset.  Anything but a str, bytes
    included, is a TypeError.
    """
    if not isinstance(s, str):
        raise TypeError(f"expected a Graph6/Sparse6 str, got {type(s).__name__}")
    s = strip_line_end(s)
    if not s:
        raise CodecError("empty graph string", offset=0)
    if s[0] == ":":
        return _decode_sparse6(s)
    return _decode_graph6(s)


def decode_numbered(numbered: Iterable[tuple[int, Graph | str]], label: str) -> Iterator[tuple[Graph | str, Graph]]:
    """(item, graph) per (position, item) pair, a Graph item being its own graph.

    A decode error, a TypeError for an item that is neither a Graph nor a
    str included, is re-raised as is, with ``"<label> <position>: "`` before
    its message.
    """
    for position, item in numbered:
        try:
            graph = item if isinstance(item, Graph) else decode(item)
        except (ValueError, TypeError) as exc:
            exc.args = (f"{label} {position}: {exc}",)
            raise
        yield item, graph

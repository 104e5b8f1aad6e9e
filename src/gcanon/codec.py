"""Graph6 and Sparse6 string codecs.

Both formats pack 6-bit groups into printable bytes 63..126.  Graph6 stores
the upper triangle of the adjacency matrix in column order (0,1), (0,2),
(1,2), (0,3), ...; Sparse6 starts with ':' and stores an edge stream.  The
upper-triangle bit-vector doubles as an integer sort key: the first pair is
the most significant bit, so comparing keys compares encoded strings.

Decoding checks the header's vertex count with ``check_vertex_count``, so a
zero-vertex string fails as a zero-vertex ``Graph`` would; Sparse6 streams
that mention a loop or repeat an edge are errors rather than being simplified.
"""

from __future__ import annotations

from .core import Graph, check_vertex_count


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
    the top m(m-1)/2 bits of the key of ``order``.
    """
    key = 0
    for j, v in enumerate(order):
        rv = rows[v]
        for u in order[:j]:
            key = (key << 1) | ((rv >> u) & 1)
    return key


def rows_from_key(n: int, key: int) -> list[int]:
    """Inverse of key_from_rows for the identity order range(n)."""
    rows = [0] * n
    pos = triangle_bits(n)
    for j in range(1, n):
        for i in range(j):
            pos -= 1
            if (key >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    # 63 <= n <= 258047: '~' then 18 bits in three 6-bit groups
    return "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))


def _group_at(s: str, pos: int) -> int:
    if pos >= len(s):
        raise CodecError("truncated graph string", offset=len(s))
    value = ord(s[pos]) - 63
    if not 0 <= value <= 63:
        raise CodecError(f"invalid byte {ord(s[pos])}", offset=pos)
    return value


def _decode_n(s: str, pos: int) -> tuple[int, int]:
    n = _group_at(s, pos)
    end = pos + 1
    if n == 63:
        if pos + 1 < len(s) and s[pos + 1] == "~":
            raise CodecError("8-byte vertex-count headers are not supported", offset=pos)
        n = 0
        for i in range(1, 4):
            n = (n << 6) | _group_at(s, pos + i)
        if n <= 62:
            raise CodecError("non-minimal vertex-count header", offset=pos)
        end = pos + 4
    check_vertex_count(n)
    return n, end


def graph6_payload(n: int, key: int) -> str:
    """The R(x) byte groups for an upper-triangle bit-vector."""
    nbits = triangle_bits(n)
    pad = (-nbits) % 6
    x = key << pad
    nbytes = (nbits + pad) // 6
    return "".join(chr(63 + ((x >> (6 * (nbytes - 1 - i))) & 63)) for i in range(nbytes))


def graph6_from_key(n: int, key: int) -> str:
    return _encode_n(n) + graph6_payload(n, key)


def encode_graph6(graph: Graph) -> str:
    """The Graph6 string of a graph."""
    return graph6_from_key(graph.n, key_from_rows(graph.rows, range(graph.n)))


def encode_sparse6(graph: Graph) -> str:
    """The Sparse6 string of a graph."""
    n = graph.n
    k = max(1, (n - 1).bit_length())
    bits: list[int] = []

    def emit(x: int) -> None:
        for i in range(k - 1, -1, -1):
            bits.append((x >> i) & 1)

    cur = 0
    for u, v in sorted((max(e), min(e)) for e in graph.edges()):
        if u == cur:
            bits.append(0)
            emit(v)
        elif u == cur + 1:
            cur += 1
            bits.append(1)
            emit(v)
        else:
            cur = u
            bits.append(1)
            emit(u)
            bits.append(0)
            emit(v)
    # 1-padding would decode as the pair (1, n-1); when n = 2^k and the
    # current vertex is n-2 that pair would emit a spurious loop, so lead the
    # padding with a harmless 0 bit.
    pad = (-len(bits)) % 6
    if n == (1 << k) and cur == n - 2 and pad >= k + 1:
        bits.append(0)
    bits.extend([1] * ((-len(bits)) % 6))
    chars = []
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = (group << 1) | b
        chars.append(chr(63 + group))
    return ":" + _encode_n(n) + "".join(chars)


def _decode_graph6(s: str) -> Graph:
    n, pos = _decode_n(s, 0)
    nbits = triangle_bits(n)
    nbytes = (nbits + 5) // 6
    if len(s) - pos > nbytes:
        raise CodecError("trailing bytes after adjacency payload", offset=pos + nbytes)
    x = 0
    for i in range(nbytes):
        x = (x << 6) | _group_at(s, pos + i)
    pad = 6 * nbytes - nbits
    if x & ((1 << pad) - 1):
        raise CodecError("nonzero padding bits", offset=pos + nbytes - 1)
    key = x >> pad
    return Graph(n, tuple(rows_from_key(n, key)))


def _decode_sparse6(s: str) -> Graph:
    n, pos = _decode_n(s, 1)
    k = max(1, (n - 1).bit_length())
    groups = [_group_at(s, i) for i in range(pos, len(s))]
    nbits = 6 * len(groups)
    stream = 0
    for g in groups:
        stream = (stream << 6) | g

    def bit(i: int) -> int:
        return (stream >> (nbits - 1 - i)) & 1

    def field(i: int) -> int:  # k bits starting at bit i
        return (stream >> (nbits - i - k)) & ((1 << k) - 1)

    def byte_of(i: int) -> int:
        return pos + i // 6

    def padding_from(i: int) -> bool:
        # valid padding is all 1s, optionally led by a single 0 bit
        return all(bit(j) for j in range(i + 1, nbits))

    rows = [0] * n
    v = 0
    i = 0
    while nbits - i >= k + 1:
        b = bit(i)
        x = field(i + 1)
        if b:
            v += 1
        if v >= n or x >= n:
            if not padding_from(i):
                raise CodecError("edge data past the declared vertex count", offset=byte_of(i))
            i = nbits
            break
        i += k + 1
        if x > v:
            v = x
        elif x == v:
            raise CodecError(f"loop at vertex {v}", offset=byte_of(i - k - 1))
        elif (rows[x] >> v) & 1:
            raise CodecError(f"repeated edge {{{x}, {v}}}", offset=byte_of(i - k - 1))
        else:
            rows[x] |= 1 << v
            rows[v] |= 1 << x
    if not padding_from(i):
        raise CodecError("trailing garbage after edge stream", offset=byte_of(i))
    return Graph(n, tuple(rows))


def strip_line_end(s: str) -> str:
    """``s`` without one trailing LF or CR LF; any other trailing byte stays."""
    return s[:-2] if s.endswith("\r\n") else s.removesuffix("\n")


def decode(s: str) -> Graph:
    """Decode a Graph6 or Sparse6 string (detected by the ':' prefix).

    A single trailing newline, LF or CR LF, is tolerated; any other stray
    byte is an error reported with its offset.
    """
    s = strip_line_end(s)
    if not s:
        raise CodecError("empty graph string", offset=0)
    if s[0] == ":":
        return _decode_sparse6(s)
    return _decode_graph6(s)

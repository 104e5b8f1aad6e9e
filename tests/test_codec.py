import hashlib
import random

import pytest

from conftest import PACKED_SIZES, all_labelled_graphs, pair_loop_key, pair_loop_rows, random_graph, to_networkx
from gcanon import GraphFilter, filter_graphs, generate, remove_isomorphs
from gcanon.codec import CodecError, decode, encode_graph6, encode_sparse6, graph6_from_key, key_from_rows, rows_from_key
from gcanon.core import Graph, Permutation, VertexCapError, ZeroVertexError, permute_graph

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)])


def test_known_graph_strings():
    assert encode_graph6(C5) == "Dhc"
    assert encode_graph6(Graph.complete(5)) == "D~{"
    assert encode_graph6(Graph.empty(1)) == "@"
    # the Sparse6 example of McKay's formats.txt: n = 7, edges 01 02 12 56
    assert encode_sparse6(Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (5, 6)])) == ":Fa@x^"


def test_decode_dhc_edge_list():
    assert set(decode("Dhc").edges()) == {(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)}
    assert decode("D~{") == Graph.complete(5)


def test_trailing_newline_tolerated():
    assert decode("Dhc\n") == C5
    assert decode("Dhc\r\n") == C5
    with pytest.raises(CodecError) as info:  # only one newline is stripped
        decode("Dhc\n\n")
    assert info.value.offset == 3


def test_empty_string_error_has_an_offset():
    for text in ("", "\n", "\r\n"):
        with pytest.raises(CodecError, match=r"^empty graph string \(byte offset 0\)$") as info:
            decode(text)
        assert info.value.offset == 0


def test_non_str_input_is_a_type_error_with_its_position():
    # bytes, as read from a binary stream, are not decoded either
    with pytest.raises(TypeError) as info:
        decode(5)
    assert str(info.value) == "expected a Graph6/Sparse6 str, got int"
    with pytest.raises(TypeError) as info:
        remove_isomorphs(["Dhc", None])
    assert str(info.value) == "item 1: expected a Graph6/Sparse6 str, got NoneType"
    with pytest.raises(TypeError) as info:
        filter_graphs(["Dhc", b"Dhc"], GraphFilter())
    assert str(info.value) == "item 1: expected a Graph6/Sparse6 str, got bytes"


def test_internal_whitespace_is_an_error():
    with pytest.raises(CodecError) as info:
        decode("D c")
    assert info.value.offset == 1
    with pytest.raises(CodecError):
        decode(" Dhc")


def test_zero_vertex_rejected():
    with pytest.raises(ZeroVertexError):
        decode("?")
    with pytest.raises(ZeroVertexError):
        decode(":?")


def test_truncated_and_trailing_payload():
    with pytest.raises(CodecError):
        decode("Dh")
    with pytest.raises(CodecError):
        decode("Dhcc")


def test_nonzero_padding_rejected():
    # C(5,2)=10 bits leave 2 padding bits in the second byte; set the last one
    with pytest.raises(CodecError):
        decode("Dhd")


def test_non_minimal_header_rejected():
    # n=5 spelled with the 4-byte header
    with pytest.raises(CodecError):
        decode("~??D" + "hc")


def test_cap_enforced_on_decode():
    # 65 vertices is over the default cap
    with pytest.raises(VertexCapError):
        decode("~?@" + chr(63 + 1) + "x" * 100)


def test_eight_byte_header_unsupported():
    with pytest.raises(CodecError):
        decode("~~??????")


def test_cap_boundary_round_trip():
    rng = random.Random(64)
    g = random_graph(rng, 64, 0.5)
    assert decode(encode_graph6(g)) == g
    assert decode(encode_sparse6(g)) == g


def test_payload_length_formula():
    rng = random.Random(1)
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 62]:
        g = random_graph(rng, n, 0.4)
        s = encode_graph6(g)
        assert len(s) == 1 + (n * (n - 1) // 2 + 5) // 6


def test_large_n_header_roundtrip():
    for n in (63, 64):
        g = Graph.from_edges(n, [(0, 1), (n - 2, n - 1)])
        s = encode_graph6(g)
        assert s.startswith("~")
        assert decode(s) == g
        s6 = encode_sparse6(g)
        assert decode(s6) == g


def test_key_round_trip():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, 0.5)
        key = key_from_rows(g.rows, range(n))
        assert tuple(rows_from_key(n, key)) == g.rows
        assert graph6_from_key(n, key) == encode_graph6(g)
        # packing in a vertex order is packing the graph relabelled by it
        order = rng.sample(range(n), n)
        image = Permutation(tuple(order.index(v) for v in range(n)))
        ordered_key = key_from_rows(g.rows, order)
        assert ordered_key == key_from_rows(permute_graph(g, image).rows, range(n))
        # a prefix of the order packs the top bits
        for m in range(n + 1):
            top = ordered_key >> (n * (n - 1) // 2 - m * (m - 1) // 2)
            assert key_from_rows(g.rows, order[:m]) == top


def test_key_kernel_round_trips_against_the_pair_loop():
    # rows_from_key reverses the key once and transposes the lower triangle,
    # and key_from_rows packs the rows in its order on one transpose; the
    # pair loops in conftest read and write the key pair by pair.  A shuffled
    # order packs the key of the graph relabelled by it, and each prefix of
    # the order its top bits, at every width and on each side of a width edge.
    rng = random.Random(35)
    for n in PACKED_SIZES:
        graphs = [Graph.empty(n), Graph.complete(n)] + [random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
        for g in graphs:
            key = pair_loop_key(g.rows)
            assert key.bit_length() <= n * (n - 1) // 2
            assert pair_loop_rows(n, key) == list(g.rows)
            assert rows_from_key(n, key) == list(g.rows)
            assert key_from_rows(g.rows, range(n)) == key
            s = encode_graph6(g)
            assert s == graph6_from_key(n, key)
            assert decode(s) == g
            order = rng.sample(range(n), n)
            position = Permutation(tuple(order.index(v) for v in range(n)))
            ordered_key = pair_loop_key(permute_graph(g, position).rows)
            for m in range(n + 1):
                top = ordered_key >> (n * (n - 1) // 2 - m * (m - 1) // 2)
                assert key_from_rows(g.rows, order[:m]) == top, (n, m)
    # n = 1 has a 0-bit key
    assert rows_from_key(1, 0) == [0] and encode_graph6(Graph.empty(1)) == "@" and decode("@") == Graph.empty(1)


def test_graph6_exhaustive_round_trip_small():
    for n in range(1, 6):
        for g in all_labelled_graphs(n):
            s = encode_graph6(g)
            assert decode(s) == g
            assert encode_graph6(decode(s)) == s


def test_sparse6_exhaustive_round_trip_n_le_6():
    for n in range(1, 7):
        for line in generate.generate_graphs(n):
            g = decode(line)
            assert decode(encode_sparse6(g)) == g


def test_sparse6_padding_guard_cases():
    # n = 2^k with the last edge ending at n-2 forces the 0-led padding
    g4 = Graph.from_edges(4, [(0, 2), (1, 2)])
    assert decode(encode_sparse6(g4)) == g4
    g8 = Graph.from_edges(8, [(0, 6), (1, 6), (2, 6)])
    assert decode(encode_sparse6(g8)) == g8
    g16 = Graph.from_edges(16, [(0, 14)])
    assert decode(encode_sparse6(g16)) == g16
    k2 = Graph.from_edges(2, [(0, 1)])
    assert decode(encode_sparse6(k2)) == k2
    assert decode(encode_sparse6(Graph.empty(2))) == Graph.empty(2)


def test_sparse6_bytes_match_recorded_digest():
    # Round trips cannot pin the encoder's bytes: an encoder that writes a
    # jump as (0, u) instead of (1, u) still decodes.  The corpus is the
    # n <= 7 census and seeded graphs at n = 2^k - 1, 2^k and 2^k + 1, where
    # the field width k and the padding change.  Recorded at commit 64e7d44,
    # before Graph6 and Sparse6 shared one packer.
    rng = random.Random(6)
    graphs = [decode(line) for n in range(1, 8) for line in generate.generate_graphs(n)]
    sizes = sorted({m for k in range(1, 7) for m in (2**k - 1, 2**k, 2**k + 1) if m <= 64})
    graphs += [random_graph(rng, n, p) for n in sizes for p in (0.05, 0.2, 0.5, 0.9) for _ in range(4)]
    text = "\n".join(encode_sparse6(g) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest() == "8b5e4ce2ca808c76b953da1f89e3bb84cff7422b490c357d087b1faaaa1952df"


def reference_decode_n(body):
    n0 = ord(body[0]) - 63
    if n0 < 63:
        return n0, body[1:]
    n = ((ord(body[1]) - 63) << 12) | ((ord(body[2]) - 63) << 6) | (ord(body[3]) - 63)
    return n, body[4:]


def reference_sparse6_decode(s):
    """Bit-string reference decoder written straight from the format rules."""
    assert s.startswith(":")
    n, rest = reference_decode_n(s[1:])
    k = max(1, (n - 1).bit_length())
    stream = "".join(format(ord(ch) - 63, "06b") for ch in rest)
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(stream):
        b = stream[pos] == "1"
        x = int(stream[pos + 1 : pos + 1 + k], 2) if k else 0
        pos += 1 + k
        if b:
            v += 1
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        else:
            edges.append((x, v))
    return n, edges


def reference_graph6_decode(s):
    """Bit-string reference decoder for the dense format."""
    n, rest = reference_decode_n(s)
    stream = "".join(format(ord(ch) - 63, "06b") for ch in rest)
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if stream[pos] == "1":
                edges.append((i, j))
            pos += 1
    return n, edges


def test_sparse6_random_round_trip_against_reference_decoder():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.random())
        s = encode_sparse6(g)
        assert decode(s) == g
        ref_n, ref_edges = reference_sparse6_decode(s)
        assert ref_n == n
        assert sorted(set(map(tuple, map(sorted, ref_edges)))) == g.edges()
        assert len(ref_edges) == g.num_edges()  # no duplicate mentions emitted


def test_graph6_random_against_reference_decoder():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        ref_n, ref_edges = reference_graph6_decode(encode_graph6(g))
        assert ref_n == n and sorted(ref_edges) == g.edges()


def _pack_bits(bits):
    out = []
    for i in range(0, len(bits), 6):
        byte = 0
        for b in bits[i : i + 6]:
            byte = (byte << 1) | b
        out.append(chr(63 + byte))
    return "".join(out)


def test_sparse6_rejects_loops_and_duplicates():
    # n=3 (header 'B'), k=2: each item is 1+2 bits
    with pytest.raises(CodecError, match="loop"):
        decode(":B" + _pack_bits([0, 0, 0, 1, 1, 1]))  # (0,00) at v=0 is {0,0}
    with pytest.raises(CodecError, match="repeated"):
        decode(":B" + _pack_bits([1, 0, 0, 0, 0, 0]))  # {0,1} twice


def test_sparse6_trailing_garbage():
    # valid K2 stream followed by a byte that is not pure padding
    s = encode_sparse6(Graph.from_edges(2, [(0, 1)]))
    with pytest.raises(CodecError):
        decode(s + "?")


def test_sparse6_detection_and_mixed_decode():
    s6 = encode_sparse6(C5)
    assert s6.startswith(":")
    assert decode(s6) == C5


def test_decode_fuzz_raises_only_documented_errors():
    rng = random.Random(1234)
    alphabet = [chr(c) for c in range(58, 131)] + [":", "~", "?", "\n"]
    survived = 0
    for _ in range(5000):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        try:
            g = decode(s)
        except (CodecError, ZeroVertexError, VertexCapError):
            continue
        survived += 1
        assert decode(encode_graph6(g)) == g
    assert survived > 0  # some random strings are valid graphs


def _edge_set(h):
    return sorted(tuple(sorted(e)) for e in h.edges())


INTEROP_SIZES = [*range(1, 21), 31, 32, 62, 63, 64]


def test_graph6_matches_networkx_bytes():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for n in INTEROP_SIZES:
        for _ in range(6):
            g = random_graph(rng, n, rng.random())
            s = encode_graph6(g)
            text = nx.to_graph6_bytes(to_networkx(g), header=False)
            assert text == s.encode() + b"\n"
            assert _edge_set(nx.from_graph6_bytes(s.encode())) == g.edges()
            assert decode(text.decode()) == g


def test_sparse6_decodes_both_ways_with_networkx():
    # The bytes may differ: networkx pads with a leading 0 bit in more cases
    # than formats.txt requires, so only the decoded graphs are compared.
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    for n in INTEROP_SIZES:
        for _ in range(6):
            g = random_graph(rng, n, rng.random() * rng.random())
            h = nx.from_sparse6_bytes(encode_sparse6(g).encode())
            assert h.number_of_nodes() == n and _edge_set(h) == g.edges()
            text = nx.to_sparse6_bytes(to_networkx(g), header=False)
            assert decode(text.decode()) == g


def decode_outcome_corpus():
    """Seeded Graph6/Sparse6 strings at n = 1..12, 30, 62, 63, 64, each with corrupted variants.

    Per valid string: two single-byte substitutions (bytes 32..130, so some
    are outside 63..126), two truncations, a set padding bit, and three
    trailing additions.
    """
    rng = random.Random(24)
    texts = []
    for n in [*range(1, 13), 30, 62, 63, 64]:
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            for s in (encode_graph6(g), encode_sparse6(g)):
                texts.append(s)
                for _ in range(2):
                    i = rng.randrange(len(s))
                    texts.append(s[:i] + chr(rng.randint(32, 130)) + s[i + 1 :])
                texts += [s[: rng.randrange(len(s))] for _ in range(2)]
                texts.append(s[:-1] + chr(63 + ((ord(s[-1]) - 63) ^ 1)))
                texts += [s + chr(rng.randint(63, 126)), s + "\n\n", s + "\r"]
    return texts


def decode_outcome(s):
    """The rows of decode(s), or its exception's type, message and offset."""
    try:
        return decode(s).rows
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None)


def test_decode_outcomes_match_recorded_digest():
    # Every outcome, rows or error, of a fixed corpus of valid and corrupted
    # strings is pinned: a faster decoder or validator must return the same
    # rows and raise the same errors at the same offsets.  Recorded at commit
    # fa91369, before Graph validation and rows_from_key used the transpose.
    texts = decode_outcome_corpus()
    assert len(texts) == 16 * 3 * 2 * 9
    record = "\n".join(f"{s!r} {decode_outcome(s)!r}" for s in texts)
    assert hashlib.sha256(record.encode()).hexdigest() == "c95ec81a90c4885e11d37bdfdfd8c5378f9fa98d16559c43f80b3e9cfb714be1"


def sparse6_boundary_corpus():
    """decode_outcome_corpus's recipe at n = 15, 16, 17, 31, 32, 33, from seed 27.

    These are where the Sparse6 field width k changes and, at n = 16, where
    the 0-led padding applies.  Each seeded graph comes twice, the second
    time with its last vertex isolated, so that its edge stream can end at
    vertex n - 2.
    """
    rng = random.Random(27)
    texts = []
    for n in (15, 16, 17, 31, 32, 33):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            for h in (g, Graph.from_edges(n, [e for e in g.edges() if n - 1 not in e])):
                for s in (encode_graph6(h), encode_sparse6(h)):
                    texts.append(s)
                    for _ in range(2):
                        i = rng.randrange(len(s))
                        texts.append(s[:i] + chr(rng.randint(32, 130)) + s[i + 1 :])
                    texts += [s[: rng.randrange(len(s))] for _ in range(2)]
                    texts.append(s[:-1] + chr(63 + ((ord(s[-1]) - 63) ^ 1)))
                    texts += [s + chr(rng.randint(63, 126)), s + "\n\n", s + "\r"]
    return texts


def test_sparse6_boundary_outcomes_match_recorded_digest():
    # The 864-string corpus jumps from n = 12 to 30 and from 33 to 62, so it
    # misses the field-width changes at 16/17 and 32/33.  Recorded at commit
    # bb63af5, before the Sparse6 decoder read its payload as one bit string.
    texts = sparse6_boundary_corpus()
    assert len(texts) == 6 * 3 * 2 * 2 * 9
    record = "\n".join(f"{s!r} {decode_outcome(s)!r}" for s in texts)
    assert hashlib.sha256(record.encode()).hexdigest() == "d8adba8f3b010c9dfebbe1493bd492cf1a6ef34fb4021acc3b20aed09cd12987"

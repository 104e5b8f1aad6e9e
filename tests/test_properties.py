"""Property-based tests (skipped when hypothesis is not installed)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

import contextlib  # noqa: E402
import io  # noqa: E402
import re  # noqa: E402

from conftest import cartesian_product, complement, disjoint_union, run_cli  # noqa: E402
from gcanon.canon import canonical_label  # noqa: E402
from gcanon.codec import CodecError, decode, encode_graph6, encode_sparse6  # noqa: E402
from gcanon.core import Graph, Permutation, VertexCapError, ZeroVertexError, permute_graph  # noqa: E402

# Graph6 bytes are 63..126; the rest probe the error paths.
_CHARS = st.characters(min_codepoint=0, max_codepoint=300)
_PREFIXES = st.sampled_from(["", ":", "~", "~~", ":~", ":~~", ">>graph6<<", ">>sparse6<<:"])
_ENDINGS = st.sampled_from(["", "\n", "\r\n", "\r", "\n\n", "\r\r\n"])
_TEXT = st.one_of(
    st.text(_CHARS, max_size=20),
    st.tuples(_PREFIXES, st.text(st.characters(min_codepoint=58, max_codepoint=127), max_size=20), _ENDINGS).map("".join),
)


@hypothesis.settings(derandomize=True, max_examples=1500, deadline=None)
@hypothesis.given(_TEXT)
def test_decode_raises_only_documented_errors(text):
    try:
        decode(text)
    except CodecError as exc:
        assert exc.offset is not None
    except (ZeroVertexError, VertexCapError):
        pass


MAX_SYMMETRIC_N = 32


@st.composite
def small_graphs(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [pair for pair in pairs if draw(st.booleans())])


@st.composite
def symmetric_graphs(draw):
    """A small graph grown by disjoint unions of copies, complements and Cartesian products."""
    g = draw(small_graphs())
    for _ in range(draw(st.integers(1, 3))):
        step = draw(st.sampled_from(["union", "complement", "product"]))
        if step == "complement":
            g = complement(g)
        elif step == "union" and 2 * g.n <= MAX_SYMMETRIC_N:
            g = disjoint_union([g] * draw(st.integers(2, MAX_SYMMETRIC_N // g.n)))
        elif step == "product":
            h = draw(small_graphs())
            if g.n * h.n <= MAX_SYMMETRIC_N:
                g = cartesian_product(g, h)
    return g


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(st.data())
def test_symmetric_families_canonical_under_relabelling(data):
    g = data.draw(symmetric_graphs())
    sigma = Permutation(tuple(data.draw(st.permutations(range(g.n)))))
    h = permute_graph(g, sigma)
    results = [canonical_label(g), canonical_label(h)]
    assert results[0].canonical_graph == results[1].canonical_graph
    for graph, result in zip((g, h), results):
        for gen in result.automorphism_generators:
            assert permute_graph(graph, gen) == graph


# Outside Graph6's 63..126; ':' would turn a Graph6 line into Sparse6, and a
# CR or LF would end the line early.
_BAD_BYTES = st.characters(max_codepoint=300).filter(lambda c: not 63 <= ord(c) <= 126 and c not in ":\r\n")


@st.composite
def corrupted_line(draw, graph):
    """A text line that no longer decodes: a bad byte, a cut, an extra byte, or "?" (zero vertices)."""
    kind = draw(st.sampled_from(["byte", "truncate", "trailing", "zero"]))
    if kind == "zero":
        return "?"
    if kind == "byte":
        line = draw(st.sampled_from([encode_graph6(graph), encode_sparse6(graph)]))
        pos = draw(st.integers(0, len(line) - 1))
        return line[:pos] + draw(_BAD_BYTES) + line[pos + 1 :]
    # Graph6 has a fixed length for its n, so any cut or extra byte breaks it;
    # a cut or extended Sparse6 edge stream may still decode.
    line = encode_graph6(graph)
    if kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    return line + draw(st.characters(min_codepoint=63, max_codepoint=126))


@hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_cli_bad_line_exits_2_with_its_line_number(data):
    graphs = data.draw(st.lists(small_graphs(max_n=9), min_size=1, max_size=6))
    k = data.draw(st.integers(1, len(graphs)))
    lines = [data.draw(st.sampled_from([encode_graph6(g), encode_sparse6(g)])) for g in graphs]
    lines[k - 1] = data.draw(corrupted_line(graphs[k - 1]))
    stdin_text = "".join(line + "\n" for line in lines)
    for command in ("label", "short", "count"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli([command], stdin_text)
        assert code == 2
        assert re.fullmatch(f"gcanon: line {k}: [^\n]+\n", err.getvalue())
        if command == "label":
            expected = [encode_graph6(canonical_label(g).canonical_graph) for g in graphs[: k - 1]]
            assert out.splitlines() == expected

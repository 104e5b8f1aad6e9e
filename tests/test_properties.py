"""Property-based tests (skipped when hypothesis is not installed)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from conftest import cartesian_product, complement, disjoint_union  # noqa: E402
from gcanon.canon import canonical_label  # noqa: E402
from gcanon.codec import CodecError, decode  # noqa: E402
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
    except (CodecError, ZeroVertexError, VertexCapError):
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

"""Property-based tests (skipped when hypothesis is not installed)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gcanon.codec import CodecError, decode  # noqa: E402
from gcanon.core import VertexCapError, ZeroVertexError  # noqa: E402

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

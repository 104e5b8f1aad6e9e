"""Canonical labelling and enumeration toolkit for small simple graphs."""

from .canon import (
    CanonResult,
    are_isomorphic,
    canonical_label,
    refine,
    remove_isomorphs,
)
from .codec import CodecError, decode, encode_graph6, encode_sparse6
from .core import (
    Colouring,
    Graph,
    Permutation,
    VertexCapError,
    ZeroVertexError,
    girth,
    permute_graph,
)
from .filters import (
    FilterSpecError,
    GraphFilter,
    PropertyConstraint,
    build_graph_filter,
    evaluate,
    filter_graphs,
    parse_filter_spec,
)
from .generate import GenOptions, RandomModel, generate_graphs, generate_random_graphs

__version__ = "0.1.0"

__all__ = [
    "CanonResult",
    "CodecError",
    "Colouring",
    "FilterSpecError",
    "GenOptions",
    "Graph",
    "GraphFilter",
    "Permutation",
    "PropertyConstraint",
    "RandomModel",
    "VertexCapError",
    "ZeroVertexError",
    "are_isomorphic",
    "build_graph_filter",
    "canonical_label",
    "decode",
    "encode_graph6",
    "encode_sparse6",
    "evaluate",
    "filter_graphs",
    "generate_graphs",
    "generate_random_graphs",
    "girth",
    "parse_filter_spec",
    "permute_graph",
    "refine",
    "remove_isomorphs",
]

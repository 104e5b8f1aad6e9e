"""Property-constraint filters over graphs: the clause language only.

Every property value comes from ``core``, which owns the graph algorithms;
this module walks no graph itself.  A filter is a conjunction of
constraints, each naming a property, a value (a bool, or an inclusive
integer range) and an optional negation.  An integer v is stored as the
range (v, v): ``PropertyConstraint("NumEdges", 3).value == (3, 3)``, and it
equals ``PropertyConstraint("NumEdges", (3, 3))``.  Connectivity follows
the deletion-based convention: value 0 means disconnected, and a positive
k means the graph is connected and some k vertices (but no k-1) disconnect
it.  The single-vertex graph is connected and therefore matches no
Connectivity value, even though its vertex connectivity is 0 by the
complete-graph convention.  ``Connectivity=lo..hi`` asks
``core.connectivity_at_most`` for min(kappa, hi + 1), which lies in
[lo, hi] exactly when kappa does.

The accompanying text grammar (used by the CLI) is a comma-separated list of
``Name=value`` items, where value is an integer (an optional sign and ASCII
digits), an inclusive range ``lo..hi``, or ``true``/``false``, and a ``!``
before the name negates the constraint: ``NumCycles=0,!Connectivity=0``
keeps exactly the trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from . import codec
from .core import Graph, all_ints, connectivity_at_most, girth

# Each property's reader; None (a forest's girth) matches no value.
# Connectivity's reader takes hi as well: min(kappa, hi + 1) decides lo <= kappa <= hi.
_PROPERTY_VALUES = {
    "Bipartite": Graph.is_bipartite,
    "Regular": lambda graph: len({row.bit_count() for row in graph.rows}) == 1,
    "Connected": Graph.is_connected,
    "NumVertices": lambda graph: graph.n,
    "NumEdges": Graph.num_edges,
    "MinDegree": lambda graph: graph.degree_sequence()[0],
    "MaxDegree": lambda graph: graph.degree_sequence()[-1],
    "Connectivity": lambda graph, hi: connectivity_at_most(graph, hi + 1) if graph.n > 1 else None,
    "NumCycles": Graph.circuit_rank,
    "Girth": girth,
}
PROPERTY_NAMES = frozenset(_PROPERTY_VALUES)
BOOLEAN_PROPERTIES = frozenset({"Bipartite", "Regular", "Connected"})
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)  # the grammar's integers: int() takes more


class FilterSpecError(ValueError):
    """A malformed filter specification."""


@dataclass(frozen=True, slots=True)
class PropertyConstraint:
    """One clause: property name, a boolean or an inclusive range, negation."""

    name: str
    value: bool | int | tuple[int, int]
    negate: bool = False

    def __post_init__(self) -> None:
        if self.name not in PROPERTY_NAMES:
            raise FilterSpecError(f"unknown property {self.name!r}")
        value = self.value
        if self.name in BOOLEAN_PROPERTIES:
            if not isinstance(value, bool):
                raise FilterSpecError(f"{self.name} takes a boolean, got {value!r}")
            return
        lo_hi = (value, value) if isinstance(value, int) else value
        if not (isinstance(lo_hi, tuple) and len(lo_hi) == 2 and all_ints(lo_hi)):
            raise FilterSpecError(f"{self.name} takes an integer or range, got {value!r}")
        if lo_hi[0] > lo_hi[1]:
            raise FilterSpecError(f"{self.name} range has lo > hi: {lo_hi}")
        object.__setattr__(self, "value", lo_hi)


@dataclass(frozen=True, slots=True)
class GraphFilter:
    """A conjunction of property constraints; empty means accept everything."""

    constraints: tuple[PropertyConstraint, ...] = ()

    def __post_init__(self) -> None:
        constraints = tuple(self.constraints)
        object.__setattr__(self, "constraints", constraints)
        names = [c.name for c in constraints]
        for name in names:
            if names.count(name) > 1:
                raise FilterSpecError(f"more than one constraint for {name}")


def build_graph_filter(spec: Iterable[tuple[str, object]]) -> GraphFilter:
    """Build a filter from (key, value) pairs.

    Keys are property names or ``Negate<name>``; a negate key needs its base
    key present and a boolean value.  A list value is read as a (lo, hi)
    range, and ``PropertyConstraint`` checks every value.  An item that is
    not a (str, value) pair, such as a key of a mapping, is an error.
    """
    values: dict[str, object] = {}
    negates: dict[str, bool] = {}
    for item in spec:
        if not (isinstance(item, (tuple, list)) and len(item) == 2 and isinstance(item[0], str)):
            raise FilterSpecError(f"expected a (name, value) pair, got {item!r}")
        key, value = item
        base = key.removeprefix("Negate")
        if base != key and base in PROPERTY_NAMES:
            if base in negates:
                raise FilterSpecError(f"duplicate key {key!r}")
            if not isinstance(value, bool):
                raise FilterSpecError(f"{key} takes a boolean, got {value!r}")
            negates[base] = value
        else:
            if key in values:
                raise FilterSpecError(f"duplicate key {key!r}")
            values[key] = value
    for base in negates:
        if base not in values:
            raise FilterSpecError(f"Negate{base} without a {base} constraint")
    constraints = tuple(
        PropertyConstraint(name, tuple(value) if isinstance(value, list) else value, negates.get(name, False))
        for name, value in values.items()
    )
    return GraphFilter(constraints)


def parse_filter_spec(text: str) -> GraphFilter:
    """Parse the CLI filter grammar; blank text accepts every graph."""
    if not text.strip():
        return GraphFilter()
    constraints = []
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            raise FilterSpecError(f"empty filter item in {text!r}")
        if "=" not in item:
            raise FilterSpecError(f"expected Name=value in {item!r}")
        name, _, value_text = item.partition("=")
        name = name.strip()
        negated = name.startswith("!")
        if negated:
            name = name[1:].strip()
        constraints.append(PropertyConstraint(name, _parse_value(item, value_text.strip()), negated))
    return GraphFilter(tuple(constraints))


def _parse_value(item: str, text: str) -> bool | int | tuple[int, int]:
    if text in ("true", "false"):
        return text == "true"
    bounds = text.split("..")
    if len(bounds) > 2 or not all(map(_INTEGER.fullmatch, bounds)):
        raise FilterSpecError(f"bad {'range' if len(bounds) > 1 else 'value'} in {item!r}")
    values = tuple(map(int, bounds))
    return values if len(values) == 2 else values[0]


def _matches(constraint: PropertyConstraint, graph: Graph) -> bool:
    name = constraint.name
    read = _PROPERTY_VALUES[name]
    if name in BOOLEAN_PROPERTIES:
        result = read(graph) is constraint.value
    else:
        lo, hi = constraint.value
        value = read(graph, hi) if name == "Connectivity" else read(graph)
        result = value is not None and lo <= value <= hi
    return result != constraint.negate


def evaluate(graph_filter: GraphFilter, graph: Graph) -> bool:
    """Whether the graph satisfies every constraint of the filter."""
    return all(_matches(c, graph) for c in graph_filter.constraints)


def filter_graphs(items: Iterable[Graph | str], graph_filter: GraphFilter) -> list[Graph | str]:
    """The subsequence of items (graphs or graph strings) passing the filter.

    Decode failures are re-raised with the item's position.
    """
    return [item for item, graph in codec.decode_numbered(enumerate(items), "item") if evaluate(graph_filter, graph)]

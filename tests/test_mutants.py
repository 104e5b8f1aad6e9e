"""The mutation catalogue of tools/mutants.py still applies to the source."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "mutants.py")


def test_every_mutant_anchor_matches_exactly_once():
    # Running the mutants takes a while; an anchor that an edit moved or
    # duplicated is caught here at once.
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    counts = {mutant["name"]: tool.anchor_count(mutant) for mutant in tool.load()}
    assert counts and counts == dict.fromkeys(counts, 1)

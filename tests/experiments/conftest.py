"""Fixtures shared by the experiment tests."""

import pytest

from repro.sweep.cache import canonical_dumps
from repro.sweep.registry import get_scenario


@pytest.fixture(scope="session")
def computed():
    """``computed(name, params)`` is the registry's ``compute`` for that
    cell, run once per session: several tests assert different claims
    on the same cell, and Fig. 7's costs a second."""
    results = {}

    def compute(name, params):
        key = (name, canonical_dumps(params))
        if key not in results:
            results[key] = get_scenario(name).compute(params)
        return results[key]

    return compute

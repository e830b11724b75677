import math

import pytest

from tubekit import linking


@pytest.fixture(params=["rows", "arrays"])
def link_storage(request, monkeypatch):
    """Run ``extract_tubes`` with every class on Python row lists, then with
    every class on link-score arrays, whatever its density."""
    monkeypatch.setattr(linking, "_ARRAY_MIN_LINKS", math.inf if request.param == "rows" else 0)
    return request.param

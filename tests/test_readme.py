import functools
import importlib
import re
from pathlib import Path

import pytest

import tubekit

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.stem for p in Path(tubekit.__file__).parent.glob("*.py") if p.stem != "__init__")
# a backticked dotted name whose first part is a tubekit module, e.g. `linking.extract_tubes`
QUALIFIED = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.\w+)+)`")


def unresolved(text):
    """The backticked ``module.name`` references of ``text`` that are not
    attributes of that ``tubekit`` module, in order."""
    missing = []
    for ref in QUALIFIED.findall(text):
        module, *attrs = ref.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"tubekit.{module}"))
        except AttributeError:
            missing.append(ref)
    return missing


@pytest.mark.parametrize(
    "text, expected",
    [
        ("`geometry.iou` and `linking._link_scores`", ["linking._link_scores"]),
        ("`linking.Detection.score`, `linking.Detection.scores`", ["linking.Detection.scores"]),
        ("`geometry.iou(a, b)`, `iou`, `numpy.nope`, geometry.nope", []),
    ],
)
def test_unresolved_reference_scan(text, expected):
    assert unresolved(text) == expected


def test_every_module_name_in_the_readme_resolves():
    text = README.read_text()
    assert len(QUALIFIED.findall(text)) >= 20
    assert unresolved(text) == []

"""Every runtime dependency declared in pyproject.toml must import."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip(
    "tomllib", reason="tomllib is new in Python 3.11; this Python cannot read pyproject.toml"
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
DEPENDENCIES = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]


@pytest.mark.parametrize("requirement", DEPENDENCIES)
def test_declared_dependency_imports(requirement):
    # "numpy>=2.0" -> distribution "numpy" -> module "numpy".
    name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
    importlib.import_module(name.replace("-", "_").lower())

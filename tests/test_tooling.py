"""The repository's tooling files agree with each other."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_dev_extra_pins_the_versions_ci_installs():
    # a new hypothesis release can change the ci profile's health checks,
    # so a local `pip install -e .[dev]` must get what CI's tier-1 step runs
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    dev = project["project"]["optional-dependencies"]["dev"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    [installed] = re.findall(r"^\s*run: python -m pip install (.+)$", workflow, re.M)
    assert sorted(installed.split()) == sorted(dev)
    assert all(re.fullmatch(r"[a-z]+==[0-9.]+", pin) for pin in dev)

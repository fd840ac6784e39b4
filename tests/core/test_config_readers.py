"""Every configuration field is read somewhere outside ``config.py``.

A field that only ``config.py`` itself touches (declared, defaulted,
perhaps validated) is a knob that changes nothing.  The scan is a plain
``ast`` walk for attribute loads, so it stays well under a second.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.core import config

SRC = Path(repro.__file__).parent
CONFIG_FILE = Path(config.__file__).resolve()


@pytest.fixture(scope="module")
def read_outside_config() -> set:
    names = set()
    for path in SRC.rglob("*.py"):
        if path.resolve() == CONFIG_FILE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    return names


CONFIG_FIELDS = [
    (cls.__name__, field.name)
    for _, cls in inspect.getmembers(config, inspect.isclass)
    if dataclasses.is_dataclass(cls) and cls.__module__ == config.__name__
    for field in dataclasses.fields(cls)
]


def test_every_config_class_is_scanned():
    assert {cls for cls, _ in CONFIG_FIELDS} >= {
        "NewsWireConfig", "GossipConfig", "BloomConfig", "MulticastConfig", "CacheConfig",
    }


@pytest.mark.parametrize("owner,name", CONFIG_FIELDS)
def test_field_is_read_outside_config(owner, name, read_outside_config):
    assert name in read_outside_config, f"{owner}.{name} is read by no module but config.py"

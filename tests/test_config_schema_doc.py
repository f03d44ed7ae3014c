"""The configuration reference's example stays a valid configuration."""

import re

import yaml

from fpfkit.config import parse_config
from tests.conftest import REPO_ROOT


def test_config_schema_example_parses():
    text = (REPO_ROOT / "docs" / "config-schema.md").read_text()
    block = re.search(r"```yaml\n(.*?)```", text, re.S).group(1)
    cfg = parse_config(yaml.safe_load(block))
    assert cfg.model.type == "beam"
    assert cfg.optimization.allowable

"""README's library example and its JSON config run as written, and the
config keys it names are the ones the CLI accepts."""

import json
import re
from pathlib import Path

from riccati_si import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_json_config_runs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    config = tmp_path / "run.json"
    config.write_text(blocks[0])
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert (tmp_path / "history.csv").exists()


def test_named_config_keys_are_accepted():
    listed = re.search(r"Top-level keys: (.*?);", README.read_text(), re.S)
    keys = set(re.findall(r"`(\w+)`", listed.group(1)))
    assert keys == cli._TOP_KEYS

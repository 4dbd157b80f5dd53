"""README's library example and its JSON config run as written, and the
config keys it names are the ones the CLI accepts."""

import dataclasses
import inspect
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
    text = README.read_text()
    listed = re.search(r"Top-level keys: (.*?);", text, re.S)
    keys = set(re.findall(r"`(\w+)`", listed.group(1)))
    assert keys == {f.name for f in dataclasses.fields(cli.RunConfig)}
    # README's key table: every key of every problem and shift kind, with
    # its JSON type and default. A default the CLI leaves to the builder
    # is the builder's own, found by the key's place in its signature
    # (shift builders take the problem first)
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `(\w+)` \| (\w+) \| "
                      r"(required|`[^`]*`)", text, re.M)
    documented = {row[:3]: row[3:] for row in rows}
    assert len(documented) == len(rows)
    table = {}
    for section, offset in (("problem", 0), ("shifts", 1)):
        for kind, (build, keys) in cli._KEYS[section].items():
            params = list(inspect.signature(build).parameters.values())
            for i, (key, (typ, default)) in enumerate(keys.items()):
                if default is cli._OWN:
                    default = params[i + offset].default
                table[section, kind, key] = (
                    cli._TYPE_NAMES[typ].split()[-1],
                    "required" if default is cli._REQUIRED
                    else f"`{json.dumps(default)}`")
    assert documented == table

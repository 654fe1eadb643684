"""The README's configuration example and command reference match the code."""

import re
from pathlib import Path

import pytest

from bachkit.cli import _build_parser
from bachkit.config import default_config, read_ini

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
REFERENCE = README.split("## Command reference", 1)[1].split("\n## ", 1)[0]
PREAMBLE, *_BULLETS = REFERENCE.split("\n- `")
SHARED = set(re.findall(r"`(--[a-z-]+)", PREAMBLE))  # flags every run command takes
BULLETS = {b.split(" ", 1)[0].rstrip("`"): b for b in _BULLETS}  # command -> its bullet
USAGES = dict(re.findall(r"^- `([a-z-]+) ([^`]*)`", REFERENCE, re.M))  # command -> usage


def _options(command: str) -> set[str]:
    sub = next(a for a in _build_parser()._actions if a.choices and command in a.choices)
    return set(sub.choices[command]._option_string_actions)


def test_readme_ini_example_loads_as_the_desk8_defaults(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README, re.S)
    p = tmp_path / "example.ini"
    p.write_text(block)
    assert read_ini(p) == default_config("desk8")


def test_readme_shared_flags_are_the_parsers():
    assert {"--config", "--profile", "--seed"} <= SHARED
    for command in ("gen-identity", "gen-frame", "run-group", "analyze", "select"):
        assert SHARED <= _options(command), command
    for command in ("dump-trace", "report"):  # they read stored files only
        assert not SHARED & _options(command), command


@pytest.mark.parametrize("command", sorted(USAGES))
def test_readme_command_flags_are_accepted(command):
    assert set(re.findall(r"--[a-z-]+", USAGES[command])) <= _options(command)


@pytest.mark.parametrize("command", sorted(USAGES))
def test_readme_bullet_documents_every_command_flag(command):
    flags = {o for o in _options(command) if o.startswith("--")} - SHARED - {"--help"}
    assert flags <= set(re.findall(r"--[a-z-]+", BULLETS[command]))

"""The README's configuration example and command reference match the code."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from bachkit import dit, scene, tensorops, vital
from bachkit.cli import _build_parser
from bachkit.config import default_config, read_ini

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
REFERENCE = README.split("## Command reference", 1)[1].split("\n## ", 1)[0]
PREAMBLE, *_BULLETS = REFERENCE.split("\n- `")
SHARED = set(re.findall(r"`(--[a-z-]+)", PREAMBLE))  # flags shared by the run commands
# the preamble's table: (commands of a row, the shared flags they take)
SHARED_BY = [(re.findall(r"`([a-z-]+)`", commands), set(re.findall(r"`(--[a-z-]+)`", flags)))
             for commands, flags in re.findall(r"^\| (`[a-z].*?) \| (.*) \|$", PREAMBLE, re.M)]
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
    commands = [c for row, _ in SHARED_BY for c in row]
    assert sorted(commands) == ["analyze", "gen-frame", "gen-identity", "run-group", "select"]
    for row, flags in SHARED_BY:
        for command in row:
            assert flags == SHARED & _options(command), command
    for command in ("dump-trace", "report"):  # they read stored files only
        assert not SHARED & _options(command), command


@pytest.mark.parametrize("command", sorted(USAGES))
def test_readme_command_flags_are_accepted(command):
    assert set(re.findall(r"--[a-z-]+", USAGES[command])) <= _options(command)


@pytest.mark.parametrize("command", sorted(USAGES))
def test_readme_bullet_documents_every_command_flag(command):
    flags = {o for o in _options(command) if o.startswith("--")} - SHARED - {"--help"}
    assert flags <= set(re.findall(r"--[a-z-]+", BULLETS[command]))


QUOTED = {
    "joint_attention": tensorops.joint_attention,
    "softmax_average": tensorops.softmax_average,
    "rope_encode": tensorops.rope_encode,
    "denoise": dit.denoise,
    "embed_prompt": dit.embed_prompt,
    "make_scene": scene.make_scene,
    "collect_skip_runs": vital.collect_skip_runs,
}


def _quoted_parameters(name: str) -> list[tuple[str, bool, object]]:
    """(name, keyword-only, default) of each parameter of the one `name(...)`
    signature the README quotes."""
    (quote,) = re.findall(rf"`{name}\(([^`]*)\)`", README)
    args = ast.parse(f"def f({quote}): pass").body[0].args
    empty = inspect.Parameter.empty
    defaults = [empty] * (len(args.args) - len(args.defaults)) + args.defaults
    return [(a.arg, False, d if d is empty else ast.literal_eval(d))
            for a, d in zip(args.args, defaults)] + [
        (a.arg, True, empty if d is None else ast.literal_eval(d))
        for a, d in zip(args.kwonlyargs, args.kw_defaults)]


@pytest.mark.parametrize("name", sorted(QUOTED))
def test_readme_signatures_are_the_codes(name):
    params = inspect.signature(QUOTED[name]).parameters.values()
    assert _quoted_parameters(name) == [
        (p.name, p.kind is p.KEYWORD_ONLY, p.default) for p in params]

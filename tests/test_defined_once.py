"""Each decision the package makes is written in one place in its source:
the CSV table format, the layer key/value projection, the joint background,
the lookup of a stored entry, the identity directory's files and the video
artifact, and the CLI's defaults."""

import ast
from pathlib import Path

import pytest

from bachkit.cli import _build_parser
from bachkit.dit import PROFILES
from bachkit.masks import MASK_HEADER
from bachkit.matching import MATCH_HEADER
from bachkit.pipeline import IDENTITY_FILES, SCENE_SIGMA_DEFAULT
from bachkit.select import GRID_HEADER
from bachkit.vital import REPORT_HEADER

SRC = Path(__file__).resolve().parents[1] / "src" / "bachkit"
SOURCES = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
TEXT = "\n".join(SOURCES.values())


def test_one_csv_writer():
    assert TEXT.count("csv.writer(") == 1


@pytest.mark.parametrize("header", [GRID_HEADER, REPORT_HEADER, MASK_HEADER, MATCH_HEADER])
def test_each_table_header_is_written_once(header):
    assert TEXT.count("(" + ", ".join(f'"{c}"' for c in header) + ")") == 1


def _functions_multiplying_by(name: str) -> set[str]:
    """`module.function` of every function with a `*` or `@` product that has
    `name` (a variable or attribute, maybe indexed) as an operand."""

    def is_name(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return getattr(node, "attr", getattr(node, "id", None)) == name

    found = set()
    for module, text in SOURCES.items():
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.MatMult))
                and (is_name(n.left) or is_name(n.right))
                for n in ast.walk(fn)
            ):
                found.add(f"{module}.{fn.name}")
    return found


@pytest.mark.parametrize("weight", ["qk_gain", "w_value"])
def test_one_key_value_projection(weight):
    assert _functions_multiplying_by(weight) == {"dit.layer_kv"}


def _is_complement_of_union(node) -> bool:
    """`~(a | b)`, or its other spelling `~a & ~b`."""
    def inverted(n):
        return isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Invert)

    if inverted(node):
        return isinstance(node.operand, ast.BinOp) and isinstance(node.operand.op, ast.BitOr)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and inverted(node.left) and inverted(node.right))


def test_one_background_rule():
    """The joint background, outside both the frame's and the identity's
    foreground mask, is formed by one function; everything else reads it."""
    found = {
        f"{module}.{fn.name}"
        for module, text in SOURCES.items()
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, ast.FunctionDef) and any(map(_is_complement_of_union, ast.walk(fn)))
    }
    assert found == {"inject.step_end"}


def test_one_entry_lookup():
    """A missing (step, layer, field) entry is refused by the one store
    lookup, `EntryStore.__getitem__`; the trace and cache classes define no
    lookup of their own."""
    raising = {
        f"{module}.{fn.name}"
        for module, text in SOURCES.items()
        for fn in ast.walk(ast.parse(text))
        if isinstance(fn, ast.FunctionDef) and any(
            isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
            and getattr(n.exc.func, "id", None) == "KeyError"
            for n in ast.walk(fn)
        )
    }
    assert raising == {"trace.__getitem__"}
    getters = [
        f"{module}.{cls.name}"
        for module in ("trace", "inject")
        for cls in ast.walk(ast.parse(SOURCES[module]))
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "get" for f in cls.body)
    ]
    assert getters == []


@pytest.mark.parametrize("name", IDENTITY_FILES)
def test_each_identity_file_is_named_once(name):
    assert TEXT.count(name) == 1


def test_one_video_artifact_writer():
    assert TEXT.count("video_sheet(decode_video(") == 1


def _cli_flag_keywords(flag: str) -> dict[str, ast.expr]:
    (call,) = [
        n for n in ast.walk(ast.parse(SOURCES["cli"]))
        if isinstance(n, ast.Call) and n.args
        and isinstance(n.args[0], ast.Constant) and n.args[0].value == flag
    ]
    return {k.arg: k.value for k in call.keywords}


def test_cli_defaults_come_from_the_library():
    literals = [
        n for n in ast.walk(ast.parse(SOURCES["cli"]))
        if isinstance(n, (ast.List, ast.Tuple, ast.Set))
        and any(isinstance(e, ast.Constant) and e.value in PROFILES for e in n.elts)
    ]
    assert literals == []
    assert not isinstance(_cli_flag_keywords("--profile")["choices"], ast.Constant)
    assert not isinstance(_cli_flag_keywords("--scene-sigma")["default"], ast.Constant)
    args = _build_parser().parse_args(["analyze", "mask"])
    assert args.scene_sigma == SCENE_SIGMA_DEFAULT
    sub = next(a for a in _build_parser()._actions if a.choices and "analyze" in a.choices)
    profile = sub.choices["analyze"]._option_string_actions["--profile"]
    assert profile.choices == sorted(PROFILES)

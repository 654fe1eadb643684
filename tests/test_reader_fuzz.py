"""Hostile bytes against every reader of a text table or an INI file.

Each fuzzer starts from a file the reader's own writer wrote, then flips,
cuts or inserts bytes: NUL, 0xff, a 200,000-character field, extra
separators and extra newlines. A read either returns a value that meets the
reader's documented checks or raises a ValueError whose message is one
line; any other error fails. The container readers have their own fuzzers
in `test_trace_io`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachkit.config import RunConfig, default_config, read_ini, write_ini
from bachkit.select import AnalysisGrid
from bachkit.vital import LayerReport, LayerScore

LONG_FIELD = b"9" * 200_000  # over the csv module's field limit, and int's digit limit


def _edits(separators: tuple[bytes, ...]):
    """Up to three edits: (kind, position, argument)."""
    at = st.integers(0, 2**16)
    return st.lists(
        st.one_of(
            st.tuples(st.just("flip"), at, st.integers(0, 255)),
            st.tuples(st.just("cut"), at, st.integers(1, 2**16)),  # a long cut truncates
            st.tuples(st.just("insert"), at, st.one_of(  # the long field in half the inserts
                st.just(LONG_FIELD),
                st.sampled_from((b"\x00", b"\xff", b"\n", b"\r\n", b"\n\n") + separators),
            )),
        ),
        min_size=1,
        max_size=3,
    )


def _edited(data: bytes, edits) -> bytes:
    data = bytearray(data)
    for kind, at, arg in edits:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data[at] = arg
        elif kind == "cut":
            del data[at : at + arg]
        elif kind == "insert":
            data[at:at] = arg
    return bytes(data)


def _read_hostile(path, written: bytes, edits, read):
    """`read(path)` of the edited bytes, or None after a one-line ValueError."""
    path.write_bytes(_edited(written, edits))
    try:
        return read(path)
    except ValueError as exc:
        message = str(exc)
        assert message and "\n" not in message and "\r" not in message, repr(message[:200])
        return None


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


_CSV = dict(max_examples=100, deadline=None)


@settings(**_CSV)
@given(edits=_edits((b",", b",,", b'"', b".", b"e")))
def test_hostile_grid_reads_a_whole_finite_table_or_raises_value_error(fuzz_dir, edits):
    p = fuzz_dir / "grid.csv"
    AnalysisGrid(steps=(0, 1, 2), layers=(0, 3),
                 values=np.array([[0.5, 0.25], [1.0, -2.0], [3.5, 0.0]]),
                 measure="match_mse").write_csv(p)
    got = _read_hostile(p, p.read_bytes(), edits, AnalysisGrid.read_csv)
    if got is not None:
        assert got.values.shape == (len(got.steps), len(got.layers))
        assert np.isfinite(got.values).all()
        assert list(got.steps) == sorted(set(got.steps))
        assert list(got.layers) == sorted(set(got.layers))


@settings(**_CSV)
@given(edits=_edits((b",", b",,", b'"', b".", b"e")))
def test_hostile_layer_report_reads_one_finite_row_per_layer_or_raises_value_error(
        fuzz_dir, edits):
    p = fuzz_dir / "report.csv"
    LayerReport(baseline=1.0, scores=tuple(
        LayerScore(layer=l, score_skip=s, drop=1.0 - s) for l, s in ((0, 0.75), (1, 0.5), (4, 1.0))
    )).write_csv(p)
    got = _read_hostile(p, p.read_bytes(), edits, LayerReport.read_csv)
    if got is not None:
        layers = [s.layer for s in got.scores]
        assert layers and layers == sorted(set(layers))
        values = [got.baseline] + [v for s in got.scores for v in (s.score_skip, s.drop)]
        assert np.isfinite(values).all()


@settings(max_examples=100, deadline=None)
@given(edits=_edits((b"=", b":", b" ", b"\t", b"[", b"]", b",", b"-")))
def test_hostile_ini_reads_a_valid_config_or_raises_value_error_naming_it(fuzz_dir, edits):
    p = fuzz_dir / "run.ini"
    write_ini(default_config("desk8"), p)
    written = p.read_bytes()
    p.write_bytes(_edited(written, edits))
    try:
        got = read_ini(p)
    except ValueError as exc:
        message = str(exc)
        assert "\n" not in message and "\r" not in message, repr(message[:200])
        assert str(p) in message, repr(message[:200])
        return
    assert isinstance(got, RunConfig)  # valid when made
    again = fuzz_dir / "again.ini"
    write_ini(got, again)
    assert read_ini(again) == got

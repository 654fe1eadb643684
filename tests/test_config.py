"""Profiles, layer-set grammar, and INI round-trip."""

import dataclasses

import pytest

import bachkit.config as config
from bachkit.config import (
    RunConfig,
    default_config,
    format_layer_set,
    parse_layer_set,
    read_ini,
    write_ini,
)
from bachkit.inject import KvCache


def test_parse_layer_set():
    assert parse_layer_set("1,3,5-9", 10) == (1, 3, 5, 6, 7, 8, 9)
    assert parse_layer_set("7", 8) == (7,)
    assert parse_layer_set("3-3", 8) == (3,)
    assert parse_layer_set(" 2 , 0 ", 8) == (0, 2)
    assert parse_layer_set("1,1,0-2", 8) == (0, 1, 2)  # duplicates collapse


def test_parse_layer_set_rejects():
    with pytest.raises(ValueError, match="descending"):
        parse_layer_set("9-5", 10)
    with pytest.raises(ValueError, match="empty"):
        parse_layer_set("", 8)
    with pytest.raises(ValueError):
        parse_layer_set("a,b", 8)
    with pytest.raises(ValueError, match="^layer set has 1 layer"):
        parse_layer_set("3-8", 8)  # the bound is the depth: layers 0..7


def test_parse_layer_set_bounds_a_range_before_expanding_it():
    # ten billion layers would not fit in memory: the range is never expanded
    for text, count, first in [("0-9999999999", 9_999_999_992, 8), ("9-12,10-20,5,30", 13, 9)]:
        with pytest.raises(ValueError) as exc:
            parse_layer_set(text, 8)
        assert str(exc.value) == f"layer set has {count} layer(s) outside 0..7, the first {first}"


def test_ini_huge_layer_range_is_one_short_line(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[readout]\nkv_layers = 0-2000000\n")
    with pytest.raises(ValueError) as exc:
        read_ini(p)
    message = str(exc.value)
    assert message == (
        f"{p}: [readout] kv_layers: layer set has 1999993 layer(s) outside 0..7, the first 8")
    assert len(message) - len(str(p)) < 200


def test_check_fits_names_the_first_bad_layer_and_the_count():
    cfg = default_config("desk8")
    with pytest.raises(ValueError) as exc:
        cfg.check_fits(4, 50)
    assert str(exc.value) == "mask_layers has 4 layer(s) outside 0..3, the first 4"
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(cfg, match_layers=tuple(range(-3, 100_000)))
    assert str(exc.value) == "match_layers has 99995 layer(s) outside 0..7, the first -3"


def test_format_layer_set():
    assert format_layer_set((1, 3, 5, 6, 7, 8, 9)) == "1,3,5-9"
    assert format_layer_set([0]) == "0"
    assert format_layer_set((2, 0, 1)) == "0-2"
    assert format_layer_set((5, 7)) == "5,7"


def test_layer_set_roundtrip():
    for text in ("1,3,5-9", "0-7", "0-1,11-15,17,19-21,23,29,34,41"):
        assert format_layer_set(parse_layer_set(text, 42)) == text


def test_desk_profile_defaults():
    cfg = default_config("desk8")
    assert (cfg.tau_mask, cfg.tau_match, cfg.tau_inject) == (10, 10, 11)
    assert cfg.mask_layers == tuple(range(8))
    assert cfg.match_layers == tuple(range(8))
    assert cfg.kv_layers == (1, 3, 5, 7)
    assert cfg.vital_k == 4
    mc = cfg.model_config()
    assert (mc.depth, mc.steps) == (8, 50)


def test_reference_profile_defaults():
    cfg = default_config("paper42")
    assert cfg.mask_layers == tuple(range(5, 20))
    assert cfg.match_layers == tuple(range(1, 16))
    assert cfg.kv_layers == (0, 1, 11, 12, 13, 14, 15, 17, 19, 20, 21, 23, 29, 34, 41)
    assert cfg.vital_k == 15
    assert cfg.model_config().depth == 42
    with pytest.raises(ValueError, match="unknown profile"):
        default_config("desk9")


def test_ini_roundtrip(tmp_path):
    cfg = dataclasses.replace(
        default_config("desk8"),
        seed=7,
        tau_mask=9,
        tau_match=8,
        tau_inject=12,
        mask_layers=(0, 2, 3, 4),
        kv_budget_bytes=123456,
        global_match=True,
    )
    p = tmp_path / "run.ini"
    write_ini(cfg, p)
    assert read_ini(p) == cfg


@pytest.mark.parametrize("profile", ["desk8", "paper42"])
@pytest.mark.parametrize("budget", [0, 4096])
def test_ini_roundtrip_sets_every_key(tmp_path, profile, budget):
    base = default_config(profile)
    depth = base.model_config().depth
    cfg = dataclasses.replace(
        base,
        seed=base.seed + 5,
        tau_mask=base.tau_mask - 2,
        tau_match=base.tau_match - 1,
        tau_inject=base.tau_inject + 3,
        mask_layers=(0, 2, depth - 1),
        match_layers=(1, 3, 4, depth - 2),
        kv_layers=(2, depth - 3),
        kv_budget_bytes=budget,
        global_match=not base.global_match,
    )
    names = [name for name, _ in config._INI_KEYS.values()]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))
    kept = {n for n in names if getattr(cfg, n) == getattr(base, n)}
    assert kept == ({"profile", "kv_budget_bytes"} if budget == 0 else {"profile"})
    p = tmp_path / "run.ini"
    write_ini(cfg, p)
    assert read_ini(p) == cfg


def test_ini_refuses_unknown_keys_bad_values_and_malformed_files(tmp_path):
    p = tmp_path / "run.ini"
    for text, message in [
        ("[inject]\nglobal_mtch = true\n", r"unknown key 'global_mtch' in section \[inject\]"),
        ("[readout]\ntau_injct = 3\n", r"unknown key 'tau_injct' in section \[readout\]"),
        ("[inject]\nrecompute_mask = true\n",
         r"unknown key 'recompute_mask' in section \[inject\]"),
        ("[injection]\nglobal_match = true\n",
         r"unknown key 'global_match' in section \[injection\]"),
        ("[DEFAULT]\nseed = 3\n", r"unknown section \[DEFAULT\]"),
        ("[inject]\nkv_budget_bytes = 0  ; note\n",
         r"\[inject\] kv_budget_bytes: invalid literal"),
        ("[inject]\nglobal_match = maybe\n", r"\[inject\] global_match: Not a boolean: maybe"),
        ("[model]\nseed = 5%\n", r"\[model\] seed: invalid literal .* '5%'"),
        ("seed = 3\n", "File contains no section headers"),
        ("[model]\nseed = 3\nseed = 4\n", "option 'seed' in section 'model' already exists"),
    ]:
        p.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            read_ini(p)
        assert "\n" not in str(exc.value)


def test_ini_partial_file_fills_from_profile(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[model]\nprofile = desk8\n\n[readout]\ntau_inject = 20\n")
    cfg = read_ini(p)
    assert cfg.tau_inject == 20
    assert cfg.tau_mask == 10  # untouched keys keep profile defaults
    assert cfg.kv_layers == (1, 3, 5, 7)


def test_ini_config_errors_name_the_file(tmp_path):
    # a value RunConfig refuses names its file, as a value that does not parse does
    p = tmp_path / "run.ini"
    for text, message in [
        ("[readout]\ntau_inject = 5\n", "tau_inject must come after tau_mask and tau_match"),
        ("[model]\nprofile = desk9\n", "unknown profile 'desk9'; choose from ['desk8', 'paper42']"),
        ("[readout]\nkv_layers = 1,99\n",
         "[readout] kv_layers: layer set has 1 layer(s) outside 0..7, the first 99"),
    ]:
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_ini(p)
        assert str(exc.value) == f"{p}: {message}"


def test_ini_that_is_not_utf8_names_the_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_bytes(b"[model]\nprofile = desk8\xff\n")
    with pytest.raises(ValueError) as exc:
        read_ini(p)
    assert str(exc.value) == (
        f"{p}: 'utf-8' codec can't decode byte 0xff in position 23: invalid start byte")


def _desk8_cache(budget: int) -> KvCache:
    """An identity cache of desk8's whole plan under `budget`; raises if refused."""
    cfg = default_config("desk8")
    mc = cfg.model_config()
    return KvCache(mc.thw, mc.channels, cfg.cache_keys(mc.steps), budget_bytes=budget)


def test_ini_budget_zero_means_unlimited(tmp_path):
    p = tmp_path / "run.ini"
    write_ini(default_config("desk8"), p)  # writes kv_budget_bytes = 0
    assert "kv_budget_bytes = 0" in p.read_text()
    assert read_ini(p).kv_budget_bytes == 0
    assert len(_desk8_cache(read_ini(p).kv_budget_bytes).plan) == 39 * 4  # the plan is admitted


def test_budget_zero_means_unlimited_and_negative_is_refused(tmp_path):
    base = default_config("desk8")
    assert base.kv_budget_bytes == 0
    assert len(_desk8_cache(dataclasses.replace(base, kv_budget_bytes=0).kv_budget_bytes).plan)
    assert dataclasses.replace(base, kv_budget_bytes=5).kv_budget_bytes == 5
    with pytest.raises(ValueError, match="kv_budget_bytes=-5 is negative; 0 means unlimited"):
        dataclasses.replace(base, kv_budget_bytes=-5)
    p = tmp_path / "run.ini"
    p.write_text("[inject]\nkv_budget_bytes = -1\n")
    with pytest.raises(ValueError, match="kv_budget_bytes=-1 is negative"):
        read_ini(p)


def test_config_rejects_bad_fields_when_made():
    base = default_config("desk8")
    cases = [
        (dict(mask_layers=(0, 8)), "mask_layers"),
        (dict(kv_layers=(-1,)), "kv_layers"),
        (dict(kv_layers=(99,), tau_inject=5), "kv_layers"),
        (dict(tau_mask=50), "tau_mask"),
        (dict(tau_inject=5), "tau_inject"),
        (dict(kv_layers=(3, 1, 3)), "^kv_layers is not a nonempty, strictly increasing layer set$"),
        (dict(mask_layers=(1, 1, 2)), "^mask_layers is not a nonempty, strictly increasing"),
        (dict(match_layers=()), "^match_layers is not a nonempty, strictly increasing"),
        (dict(profile="desk9"), r"unknown profile 'desk9'; choose from \['desk8', 'paper42'\]"),
    ]
    for kw, needle in cases:
        with pytest.raises(ValueError, match=needle):
            dataclasses.replace(base, **kw)  # raises here, so no run can start from it


def test_vital_k_is_the_number_of_kv_layers(tmp_path):
    for profile, k in (("desk8", 4), ("paper42", 15)):
        cfg = default_config(profile)
        assert cfg.vital_k == len(cfg.kv_layers) == k
    assert dataclasses.replace(default_config("desk8"), kv_layers=(2, 6)).vital_k == 2
    assert "vital_k" not in {f.name for f in dataclasses.fields(RunConfig)}
    p = tmp_path / "run.ini"
    p.write_text("[vital]\nk = 4\n")
    with pytest.raises(ValueError) as exc:
        read_ini(p)
    assert str(exc.value) == f"{p}: unknown key 'k' in section [vital]"


def test_negative_seed_is_refused_when_made():
    base = default_config("desk8")
    assert dataclasses.replace(base, seed=0).seed == 0
    with pytest.raises(ValueError, match=r"^seed=-1 is negative$"):
        dataclasses.replace(base, seed=-1)


def test_ini_negative_seed_names_the_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[model]\nseed = -2\n")
    with pytest.raises(ValueError) as exc:
        read_ini(p)
    assert str(exc.value) == f"{p}: seed=-2 is negative"

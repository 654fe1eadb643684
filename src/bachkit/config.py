"""Run configuration: profiles, layer sets, and INI round-trip.

Two profiles ship with the package. `desk8` is the 8-layer model sized for
tests and demos. `paper42` is the 42-layer reference configuration with its
published readout steps and layer sets (all indices 0-based). Layer sets in
INI files use comma-separated entries, each a single index or an inclusive
`lo-hi` range.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

import numpy as np

from .dit import PROFILES, ModelConfig


def _layers_outside(what: str, first: int, count: int, depth: int) -> str:
    """The message refusing `count` layers of `what` outside 0..depth-1,
    `first` the lowest of them: one short line, however many there are."""
    return f"{what} has {count} layer(s) outside 0..{depth - 1}, the first {first}"


def parse_layer_set(text: str, depth: int) -> tuple[int, ...]:
    """Parse "1,3,5-9" into a sorted tuple of distinct layer indices in
    0..depth-1. A layer outside is refused (`_layers_outside`) before any
    range is expanded, so a range's length costs nothing."""
    spans = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = part.split("-", 1) if "-" in part else (part, part)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"layer set part {part!r} is not a layer or a lo-hi range") from None
        if hi < lo:
            raise ValueError(f"descending layer range {part!r}")
        spans.append((lo, hi))
    if not spans:
        raise ValueError("empty layer set")
    bad = sorted((max(lo, depth), hi) for lo, hi in spans if hi >= depth)
    if bad:
        count, end = 0, depth - 1
        for lo, hi in bad:  # the size of the bad spans' union, counted without expanding it
            count, end = count + max(0, hi - max(lo, end + 1) + 1), max(end, hi)
        raise ValueError(_layers_outside("layer set", bad[0][0], count, depth))
    return tuple(sorted({l for lo, hi in spans for l in range(lo, hi + 1)}))


def format_layer_set(layers) -> str:
    """Inverse of parse_layer_set, collapsing runs into ranges."""
    xs = np.array(sorted({int(l) for l in layers}), dtype=np.int64)
    runs = np.split(xs, np.flatnonzero(np.diff(xs) != 1) + 1)
    return ",".join(f"{r[0]}" if r.size == 1 else f"{r[0]}-{r[-1]}" for r in runs if r.size)


def _known_profile(name: str) -> str:
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    return name


@dataclass(frozen=True)
class RunConfig:
    """Everything one consistency run group needs besides the scene. It is
    valid when made, by `replace` too: a negative seed, a layer set that is
    empty or not strictly increasing, a field outside its profile's depth,
    steps or ranges, or an unknown profile, raises a ValueError."""

    profile: str
    seed: int
    tau_mask: int
    tau_match: int
    tau_inject: int
    mask_layers: tuple[int, ...]
    match_layers: tuple[int, ...]
    kv_layers: tuple[int, ...]
    kv_budget_bytes: int = 0  # 0 means unlimited
    global_match: bool = False

    def __post_init__(self):
        cfg = PROFILES[_known_profile(self.profile)]
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} is negative")
        self.check_fits(cfg.depth, cfg.steps)
        if self.tau_inject <= max(self.tau_mask, self.tau_match):
            raise ValueError("tau_inject must come after tau_mask and tau_match")
        if self.kv_budget_bytes < 0:
            raise ValueError(f"kv_budget_bytes={self.kv_budget_bytes} is negative; 0 means unlimited")

    def check_fits(self, depth: int, steps: int) -> None:
        """Raise a ValueError naming the first layer set that is empty, not
        strictly increasing or has a layer outside 0..depth-1, or the first
        readout or injection step outside 0..steps-1.
        A run checks this against its model, whose depth and steps may differ
        from the profile's, before any compute."""
        for name, layers in (
            ("mask_layers", self.mask_layers),
            ("match_layers", self.match_layers),
            ("kv_layers", self.kv_layers),
        ):
            if not layers or any(a >= b for a, b in zip(layers, layers[1:])):
                raise ValueError(f"{name} is not a nonempty, strictly increasing layer set")
            bad = {l for l in layers if not 0 <= l < depth}
            if bad:
                raise ValueError(_layers_outside(name, min(bad), len(bad), depth))
        for name, tau in (
            ("tau_mask", self.tau_mask),
            ("tau_match", self.tau_match),
            ("tau_inject", self.tau_inject),
        ):
            if not 0 <= tau < steps:
                raise ValueError(f"{name}={tau} outside 0..{steps - 1}")

    @property
    def vital_k(self) -> int:
        """The layer count a selection keeps: the kv layers, which get injected."""
        return len(self.kv_layers)

    def model_config(self) -> ModelConfig:
        return PROFILES[self.profile]

    def cache_keys(self, steps: int) -> tuple[tuple[int, int], ...]:
        """(step, layer) keys the identity caches and a frame run injects at:
        every step from `tau_inject` up to `steps`, every kv layer."""
        return tuple((s, l) for s in range(self.tau_inject, steps) for l in self.kv_layers)

    def readout_keys(self) -> tuple[tuple[int, int, str], ...]:
        """(step, layer, field) entries the mask and match read from each run:
        `v2t` at `tau_mask` for the mask layers, then `attn_out` at
        `tau_match` for the match layers."""
        return tuple((self.tau_mask, l, "v2t") for l in self.mask_layers) + tuple(
            (self.tau_match, l, "attn_out") for l in self.match_layers
        )


_PROFILE_DEFAULTS = {
    "desk8": RunConfig(
        profile="desk8",
        seed=0,
        tau_mask=10,
        tau_match=10,
        tau_inject=11,
        mask_layers=tuple(range(8)),
        match_layers=tuple(range(8)),
        kv_layers=(1, 3, 5, 7),
    ),
    "paper42": RunConfig(
        profile="paper42",
        seed=0,
        tau_mask=10,
        tau_match=10,
        tau_inject=11,
        mask_layers=tuple(range(5, 20)),
        match_layers=tuple(range(1, 16)),
        kv_layers=(0, 1, 11, 12, 13, 14, 15, 17, 19, 20, 21, 23, 29, 34, 41),
    ),
}


def default_config(profile: str = "desk8") -> RunConfig:
    return _PROFILE_DEFAULTS[_known_profile(profile)]


# (section, key) of an INI file -> (RunConfig field, ConfigParser getter), in file order.
_INI_KEYS = {
    ("model", "profile"): ("profile", "get"),
    ("model", "seed"): ("seed", "getint"),
    **{("readout", k): (k, "getint") for k in ("tau_mask", "tau_match", "tau_inject")},
    **{("readout", k): (k, "getlayers") for k in ("mask_layers", "match_layers", "kv_layers")},
    ("inject", "kv_budget_bytes"): ("kv_budget_bytes", "getint"),
    ("inject", "global_match"): ("global_match", "getboolean"),
}

# ConfigParser getter -> the formatter it inverts; `str` inverts the others.
_INI_FORMATS = {"getlayers": format_layer_set, "getboolean": lambda value: str(value).lower()}


def read_ini(path) -> RunConfig:
    """Load a RunConfig from an INI file, starting from its profile's defaults.

    Every key is optional. An unknown key, also one in an unknown section,
    or a value that does not parse raises a ValueError naming its section
    and key; a malformed file or a [DEFAULT] section raises a one-line
    ValueError too, and so does a config `RunConfig` refuses (an unknown
    profile, a layer or step outside it, ...), prefixed with `path: `.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:  # one line, as every other config error
            raise ValueError(" ".join(str(exc).split())) from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    profile = parser.get("model", "profile", fallback="desk8")  # its depth bounds a layer set
    parser.converters["layers"] = lambda text: parse_layer_set(
        text, PROFILES[_known_profile(profile)].depth)
    kw = {}
    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in _INI_KEYS:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            name, getter = _INI_KEYS[section, key]
            try:
                kw[name] = getattr(parser, getter)(section, key)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    try:
        return replace(default_config(profile), **kw)
    except ValueError as exc:  # the RunConfig's own checks, and an unknown profile
        raise ValueError(f"{path}: {exc}") from None


def write_ini(cfg: RunConfig, path) -> None:
    """Write every `_INI_KEYS` entry of `cfg`; `read_ini` reads it back equal."""
    sections: dict[str, dict[str, str]] = {}
    for (section, key), (name, getter) in _INI_KEYS.items():
        sections.setdefault(section, {})[key] = _INI_FORMATS.get(getter, str)(getattr(cfg, name))
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)

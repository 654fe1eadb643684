"""Layer-input caching and identity injection.

An identity run is generated once while the video rows of each injection
layer's input are cached. A later frame run then substitutes fused
key/value sequences: its own joint rows, plus matched identity foreground
rows re-encoded at the frame pixels' grid positions, plus identity
background rows at their original positions. The identity keys and values
are derived from the cached input with the layer's own projections, so they
equal, bit for bit, the rows the identity run attended with. An additive
region mask keeps foreground queries on frame and identity-foreground keys,
background queries on frame and identity-background keys, and text queries
on frame keys only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dit import Hooks, InjectionPlan, LayerWeights, Model, layer_kv
from .masks import mask_from_slices
from .matching import MatchMap, match_foreground, similarity
from .tensorops import DTYPE, NEG, RotaryTable, rope_encode
from .trace import FIELD_TAGS, FIELD_X, AttentionTrace, EntryStore, read_container, write_container


def entry_nbytes(rows: int, channels: int) -> int:
    """Bytes one cached (step, layer) entry occupies: its input rows, float32."""
    return rows * channels * 4


def cache_nbytes(n_steps: int, n_layers: int, rows: int, channels: int) -> int:
    """Total bytes a full cache plan occupies."""
    return n_steps * n_layers * entry_nbytes(rows, channels)


class CacheBudgetError(RuntimeError):
    """Raised when a cache plan needs more bytes than the budget allows."""


@dataclass
class KvCache:
    """Video rows of injection-layer inputs for a plan of (step, layer) keys,
    with a byte budget.

    An entry is `x[:THW]`, the video rows of one layer's input at one step;
    `dit.layer_kv` derives that layer's pre-rotary keys and values from it.
    The plan decides both what the cache admits and what it costs: a key
    outside it is refused, and the whole plan is held to `budget_bytes` when
    the cache is made, so an undersized budget fails before any run starts
    and before any file exists. A budget of 0 admits any plan; a negative
    budget is a ValueError. `entries` is an `EntryStore` keyed by (step,
    layer, "x"): admitted rows are written to its temporary file, and a loaded
    cache's are the saved file's (see `load`), so the process holds only
    the entry table and each entry while it is read.
    """

    rows: int
    channels: int
    plan: tuple[tuple[int, int], ...]
    budget_bytes: int = 0
    entries: EntryStore = field(init=False, default_factory=EntryStore)

    def __post_init__(self):
        self.plan = tuple((int(s), int(l)) for s, l in self.plan)
        if self.budget_bytes < 0:
            raise ValueError(f"budget_bytes={self.budget_bytes} is negative; 0 means unlimited")
        need = len(self.plan) * entry_nbytes(self.rows, self.channels)
        if self.budget_bytes and need > self.budget_bytes:
            raise CacheBudgetError(
                f"cache plan needs {need} bytes ({len(self.plan)} entries of "
                f"{self.rows}x{self.channels} rows), budget is {self.budget_bytes}"
            )
        self._planned = frozenset(self.plan)

    @property
    def nbytes(self) -> int:
        return len(self.entries) * entry_nbytes(self.rows, self.channels)

    def _key(self, step: int, layer: int, shape: tuple[int, ...]) -> tuple[int, int, str]:
        """The store key of an entry of `shape`, once the plan and its shape
        allow it."""
        if (int(step), int(layer)) not in self._planned:
            raise ValueError(f"step {step} layer {layer} is outside the cache plan")
        if shape != (self.rows, self.channels):
            raise ValueError(f"cache rows must be {(self.rows, self.channels)}, got {shape}")
        return int(step), int(layer), "x"

    def admit(self, step: int, layer: int, x_rows: np.ndarray) -> None:
        """Write one layer input's (rows, channels) video rows to the cache."""
        self.entries.put(self._key(step, layer, x_rows.shape), x_rows)

    def save(self, path) -> None:
        write_container(self.entries, path)

    @classmethod
    def load(cls, path, budget_bytes: int = 0) -> "KvCache":
        """Open a saved cache; its plan is the saved (step, layer) pairs.

        Only the checked entry table is held: each entry is read from the
        file when `entries[key]` asks for it, as a fresh read-only
        array, while `in`, `len` and iteration use the table only. A frame
        run reads each entry once, so holds one entry at a time.

        Raises:
            ValueError: for a table `read_table` refuses, for an empty
                container, for one holding records other than layer inputs,
                or for records of unequal shape. A cache of the earlier
                format (separate K and V records) has tags the container
                reader no longer knows, and is refused by it. When an entry
                is read from a file cut since, "container truncated".
            CacheBudgetError: when the saved plan exceeds `budget_bytes`.
        """
        store = read_container(path)
        other = sorted({FIELD_TAGS[name] for _, _, name in store} - {FIELD_X})
        if other:
            raise ValueError(f"'x' container holds unexpected fields {other}")
        if not store:
            raise ValueError("cache container is empty")
        rows, channels = store.shape(next(iter(store)))
        plan = tuple((step, layer) for step, layer, _ in store)
        cache = cls(rows=rows, channels=channels, plan=plan, budget_bytes=budget_bytes)
        for key in store:
            cache._key(*key[:2], store.shape(key))
        cache.entries = store
        return cache


class CacheRecorder(Hooks):
    """Hook that admits the video rows of a layer's input into a cache: its
    keys are the "x" entries of the cache plan's (step, layer) pairs."""

    def __init__(self, cache: KvCache):
        self.cache = cache
        self.keys = frozenset((s, l, "x") for s, l in cache.plan)

    def observe(self, step, layer, name, value) -> None:
        self.cache.admit(step, layer, value)


def region_mask(joint_len: int, thw: int, fg: np.ndarray, n_fg: int, n_bg: int) -> np.ndarray:
    """Additive attention mask over [joint | injected-fg | injected-bg] keys.

    Joint keys stay open to every query. Foreground queries reach the
    injected foreground block, every other video query reaches the injected
    background block, and text queries reach neither. The mask is
    Fortran-ordered: `joint_attention` adds it transposed to key-major
    scores, and reads it contiguously that way.
    """
    m = np.zeros((joint_len, joint_len + n_fg + n_bg), dtype=DTYPE, order="F")
    m[:, joint_len:] = NEG
    bg_queries = np.setdiff1d(np.arange(thw), fg, assume_unique=True)
    if n_fg and fg.size:
        m[np.ix_(fg, joint_len + np.arange(n_fg))] = 0.0
    if n_bg and bg_queries.size:
        m[np.ix_(bg_queries, joint_len + n_fg + np.arange(n_bg))] = 0.0
    return m


def build_plan(
    roped_k: np.ndarray,
    pre_v: np.ndarray,
    cached_x: np.ndarray,
    weights: LayerWeights,
    cached_rows: np.ndarray,
    key_table: RotaryTable,
    add_mask: np.ndarray,
) -> InjectionPlan:
    """Fuse natural frame keys/values with identity rows derived from the cache.

    `cached_x` holds the video rows of the identity's input to this layer and
    `weights` are the layer's projections. Its `cached_rows` (each frame
    foreground pixel's matched identity row, then the joint background
    pixels) are projected to pre-rotary keys and values by `layer_kv`, as
    `forward` projects them. `key_table` holds the model's rotary rows of the
    frame's foreground pixels, then of the background pixels: foreground keys
    are encoded at the frame pixel's grid position so they align with the
    queries that should pull them, background keys at their own (shared)
    positions. Values are position-free and enter unencoded. `add_mask` is
    the `region_mask` of those rows.
    """
    pre_k_id, v_id = layer_kv(cached_x[cached_rows], weights)
    k = np.concatenate([roped_k, rope_encode(pre_k_id, key_table)], axis=0)
    v = np.concatenate([pre_v, v_id], axis=0)
    return InjectionPlan(k=k, v=v, add_mask=add_mask)


class Injector(Hooks):
    """Stateful hook that plants cached identity content into a frame run.

    Built from the model, a finished identity run (its layer-input `cache`
    and readout `trace`) and the frame's `RunConfig`, whose key plans decide
    what it records and where it injects. During the frame run it records
    the frame's own readout entries and, one step before injection begins,
    derives once the foreground masks, the cross-generation match map and,
    from them, the joint `background` outside both masks, the injected rows
    (`cached_rows` and `key_table`, see `build_plan`) and the region mask,
    which every injected layer shares; it then substitutes fused key/value
    rows at the chosen layers for every later step.

    It also keeps `latent_at_inject`, a copy of the latent entering
    `tau_inject`. No step before `tau_inject` is injected, so that latent is
    the vanilla run's too, and a vanilla run resumed from it (`denoise`'s
    `start`) equals a full vanilla run bit for bit.
    """

    def __init__(self, *, model: Model, layout, identity, run_cfg):
        self.model = model
        self.layout = layout
        self.identity = identity
        self.run_cfg = run_cfg
        self.injects = frozenset(run_cfg.cache_keys(model.config.steps))
        self.keys = frozenset(run_cfg.readout_keys())
        self.own = AttentionTrace()
        self.match: MatchMap | None = None
        self.mask_frame: np.ndarray | None = None
        self.mask_identity: np.ndarray | None = None
        self.background: np.ndarray | None = None
        self.cached_rows: np.ndarray | None = None
        self.key_table: RotaryTable | None = None
        self.add_mask: np.ndarray | None = None
        self.latent_at_inject: np.ndarray | None = None

    def observe(self, step, layer, name, value) -> None:
        self.own.put(step, layer, name, value)

    def step_end(self, step: int, z: np.ndarray) -> None:
        rc = self.run_cfg
        if step != rc.tau_inject - 1:
            return
        self.latent_at_inject = z.copy()
        cfg = self.model.config
        grid = (self.layout, cfg.frames, cfg.height, cfg.width)
        runs = (self.own, self.identity.trace)  # the frame's readouts, then the identity's
        self.mask_frame, self.mask_identity = (
            mask_from_slices(t.layer_slices(rc.tau_mask, rc.mask_layers, "v2t"), *grid)
            for t in runs
        )
        sim = similarity(*(t.layer_slices(rc.tau_match, rc.match_layers, "attn_out") for t in runs))
        self.match = match_foreground(
            sim, self.mask_frame, cfg.frames, cfg.height, cfg.width,
            global_match=rc.global_match,
        )
        fg = np.flatnonzero(self.mask_frame)  # every one matched by `match_foreground`
        self.background = ~(self.mask_frame | self.mask_identity)
        bg = np.flatnonzero(self.background)
        self.cached_rows = np.concatenate([self.match.as_lookup().ravel()[fg], bg])
        self.key_table = self.model.rotary[np.concatenate([fg, bg])]
        self.add_mask = region_mask(cfg.joint_len, cfg.thw, fg, len(fg), len(bg))
        self.add_mask.flags.writeable = False  # shared by every injected layer

    def inject(self, step, layer, pre_k, pre_v, roped_k) -> InjectionPlan | None:
        if (step, layer) not in self.injects or self.cached_rows is None:
            return None
        return build_plan(
            roped_k,
            pre_v,
            self.identity.cache.entries[step, layer, "x"],
            self.model.layers[layer],
            self.cached_rows,
            self.key_table,
            self.add_mask,
        )

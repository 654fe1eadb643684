"""Desk-scale consistent video generation with attention readouts.

A miniature joint-sequence diffusion transformer whose denoising loop is
instrumented end to end: video-to-text attention yields foreground masks,
attention outputs yield cross-generation point matches, layer skipping
ranks layer importance, and key/value rows derived from an identity run's
cached layer inputs are re-positioned and injected into later runs under a
region-restricted attention mask. Planted synthetic scenes supply exact ground truth for all
of it.
"""

__version__ = "0.1.0"

from .config import RunConfig, default_config, read_ini, write_ini
from .dit import (
    ModelConfig,
    PROFILES,
    PromptLayout,
    StepSchedule,
    decode_video,
    denoise,
    embed_prompt,
    init_model,
)
from .inject import KvCache, cache_nbytes
from .masks import mask_from_slices, mask_iou
from .matching import MatchMap, exact_fraction, match_foreground, match_mse, similarity
from .pipeline import (
    GroupReport,
    Workbench,
    make_workbench,
    psnr_bg,
    run_frame,
    run_group,
    run_identity,
    write_group_outputs,
)
from .scene import FRAME, IDENTITY, Scene, make_scene
from .select import (
    AnalysisGrid,
    select_layers,
    select_tau_mask,
    select_tau_match,
    select_vital,
)
from .tensorops import NEG, Attention, RotaryTable, joint_attention, rope_encode, softmax_average
from .trace import AttentionTrace, TraceRecorder
from .vital import (
    FrameEmbedder,
    LayerReport,
    aesthetic_score,
    embed_similarity_score,
    sweep_layers_embed,
)

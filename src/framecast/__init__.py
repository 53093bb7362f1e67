"""Frame-level autoregressive nowcasting on discrete token grids.

The package splits into five layers: field containers and synthetic data
(fields, advection, eventfile), a small autodiff substrate (autodiff, optim,
checkpoint), discrete tokenization (tokenizer), the block-causal dynamics
transformer with its decode-cost benchmark (dynamics), and the forecast
verification suite (verification). The cli module wires them into a
reproducible pipeline.
"""

from .advection import AdvectionParams, bilinear_shift, generate_advection_event
from .autodiff import Tensor, cross_entropy_logits, gradients, layer_norm, softmax
from .config import RunConfig, load_config, write_config
from .dynamics import (
    BlockMask,
    DynamicsConfig,
    DynamicsModel,
    attention,
    benchmark_decode,
    build_block_causal_mask,
    build_token_causal_mask,
    dynamics_loss,
    forecast,
    load_dynamics,
    rollout,
    save_dynamics,
    train_dynamics,
)
from .errors import ConfigError, DependencyError, FramecastError, HorizonError
from .eventfile import read_event, read_events, read_manifest, write_event, write_manifest
from .fields import (
    EventSequence,
    RadarField,
    denormalize,
    event_mean_rate,
    filter_events,
    normalize,
    rate_to_reflectivity,
    reflectivity_to_rate,
)
from .optim import Adam, warmup_lr
from .tokenizer import (
    Tokenizer,
    TokenizerConfig,
    quantize,
    train_tokenizer,
    vqvae_loss,
)
from .verification import (
    ContingencyTable,
    MetricReport,
    ROCCurve,
    auc,
    binarize,
    contingency,
    csi,
    evaluate_catchments,
    evaluate_runs,
    far,
    mae,
    mse,
    pcc,
    pod,
    pofd,
    roc_curve,
    stratify_by_lead_time,
    stratify_by_percentile_bin,
)

__version__ = "0.1.0"

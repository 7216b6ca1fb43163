"""Attention-aware rendering-capacity allocation toolkit.

Pipeline: generate a synthetic user-object-attention world, sparsify it into
observation records, predict unobserved attention with a latent-factor model,
and allocate a rendering-capacity budget across scene objects to maximize a
logarithmic (Weber-Fechner) quality-of-experience metric.
"""

from .allocate import (
    AllocationProblem,
    AllocationResult,
    InfeasibleError,
    allocate_uniform,
    allocate_weighted,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRunner,
    SweepReport,
    UserReport,
    run_all,
)
from .mf import (
    BaselineModel,
    FactorModel,
    FitConfig,
    evaluate,
    fit_baseline,
    fit_mf,
    predict_scene,
)
from .qoe import ChannelConfig, LinkParams, QoETerms, link_from_channel
from .records import SparseAttentionRecords, load_records, save_records
from .world import (
    GroundTruthLevels,
    World,
    WorldConfig,
    generate_world,
    ground_truth_levels,
    load_world,
    quantize_levels,
    save_world,
    sparsify,
)

__version__ = "0.1.0"

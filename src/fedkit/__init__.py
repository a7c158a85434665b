"""fedkit: round-based federated learning with a deterministic simulator.

A numpy library plus a small wire runtime. The pieces:

* :mod:`fedkit.params`: parameter vectors, updates, scores, Dice.
* :mod:`fedkit.aggregation`: weighted averaging, proximal gradients,
  personalization steps.
* :mod:`fedkit.training`: desk-scale trainers and non-IID synthetic data.
* :mod:`fedkit.config`: the config document, its schema and its hash.
* :mod:`fedkit.protocol`: the length-prefixed JSON wire format.
* :mod:`fedkit.checkpoint`: the durable checkpoint file.
* :mod:`fedkit.metrics`: round records, reports, and tables.
* :mod:`fedkit.server`: the round coordinator and its TCP runtime;
  :mod:`fedkit.client`: the client session and its TCP runtime.
* :mod:`fedkit.simulator`: the same federation under a virtual clock.
"""

from .aggregation import (
    AlgorithmConfig,
    ditto_personal_step,
    federated_average,
    proximal_loss_gradient,
)
from .checkpoint import resume_from_checkpoint
from .client import (
    BackoffPolicy,
    ClientConfig,
    ClientRuntime,
    ClientSession,
    run_client,
)
from .config import FaultEvent, FederationConfig, SimScenario, SiteSpec
from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    DomainError,
    EmptyAggregationError,
    EncodeError,
    ExperimentAborted,
    FedkitError,
    IoError,
    NumericError,
    ProtocolError,
    ReportError,
    StartupError,
)
from .metrics import (
    ClientRoundStat,
    ExperimentReport,
    RoundRecord,
    Totals,
    compare_global_local,
    export_csv,
    summarize,
)
from .params import (
    EvalScore,
    ModelUpdate,
    ParameterVector,
    add_scaled,
    dice_score,
    l2_distance,
)
from .protocol import FrameDecoder, Message, decode, encode
from .server import FederationCoordinator, FederationServer, RoundState
from .simulator import SimulationReport, simulate, speedup
from .training import (
    ClientDataset,
    HeterogeneityConfig,
    TrainerConfig,
    evaluate,
    generate_site_data,
    local_gradient,
    local_train,
    train_local_only,
)

__version__ = "0.1.0"

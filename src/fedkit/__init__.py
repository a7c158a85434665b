"""fedkit: round-based federated learning with a deterministic simulator.

A numpy library plus a small wire runtime. The pieces:

* :mod:`fedkit.params`: parameter vectors, updates, scores, Dice.
* :mod:`fedkit.aggregation`: weighted averaging, proximal gradients,
  personalization steps.
* :mod:`fedkit.training`: desk-scale trainers and non-IID synthetic data.
* :mod:`fedkit.protocol`: the length-prefixed JSON wire format.
* :mod:`fedkit.server` / :mod:`fedkit.client`: the TCP deployment.
* :mod:`fedkit.simulator`: the same federation under a virtual clock.
* :mod:`fedkit.metrics`: round records, reports, and tables.
"""

from .aggregation import (
    AlgorithmConfig,
    ditto_personal_step,
    federated_average,
    proximal_loss_gradient,
)
from .client import (
    BackoffPolicy,
    ClientConfig,
    ClientRuntime,
    ClientSession,
    run_client,
)
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
from .server import (
    FederationConfig,
    FederationCoordinator,
    FederationServer,
    RoundState,
    SiteSpec,
    resume_from_checkpoint,
)
from .simulator import FaultEvent, SimScenario, SimulationReport, simulate, speedup
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

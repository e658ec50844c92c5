"""Training-side characterization: FSDP step cost and training memory.

The paper's Figure 1 observations (14x GPUs per parameter, ~10pp higher
memory utilization for TTI/TTV) are fleet aggregates; this package lets
the same quantities be derived from the model suite itself.  FSDP's
collectives run on the registered machines of
:mod:`repro.distributed.registry`.
"""

from repro.training.fsdp import (
    BACKWARD_COMPUTE_MULTIPLIER,
    FsdpStepCost,
    ScalingPoint,
    fsdp_step_cost,
    scaling_sweep,
)
from repro.training.memory import (
    BYTES_PER_PARAM_TRAINING,
    TrainingMemoryEstimate,
    activation_bytes_from_trace,
    estimate_training_memory,
    minimum_gpus_for_state,
)

__all__ = [
    "BACKWARD_COMPUTE_MULTIPLIER",
    "BYTES_PER_PARAM_TRAINING",
    "FsdpStepCost",
    "ScalingPoint",
    "TrainingMemoryEstimate",
    "activation_bytes_from_trace",
    "estimate_training_memory",
    "fsdp_step_cost",
    "minimum_gpus_for_state",
    "scaling_sweep",
]

"""Analytical frameworks from the paper (Sections II, V, VI)."""

from repro.analysis.attention_memory import (
    BYTES_PER_PARAM,
    cross_attention_matrix_shape,
    cumulative_unet_similarity_bytes,
    self_attention_matrix_shape,
    self_attention_seq_len,
    similarity_matrix_bytes,
    stage_sequence_lengths,
)
from repro.analysis.fleet import (
    FleetSummary,
    TrainingJob,
    architecture_to_workload,
    summarize_fleet,
    synthesize_fleet,
)
from repro.analysis.pareto import (
    FIGURE4_DATASET,
    ModelQualityPoint,
    best_architecture_at_size,
    pareto_frontier,
    quality_per_parameter,
)
from repro.analysis.batching import (
    BatchPoint,
    batching_efficiency,
    crossover_batch,
    sweep_batch_sizes,
)
from repro.analysis.scaling import (
    FrameScalingPoint,
    ImageScalingPoint,
    crossover_frames,
    scaling_rate,
    sweep_frame_counts,
    sweep_image_sizes,
)

__all__ = [
    "BYTES_PER_PARAM",
    "BatchPoint",
    "batching_efficiency",
    "crossover_batch",
    "sweep_batch_sizes",
    "FIGURE4_DATASET",
    "FleetSummary",
    "FrameScalingPoint",
    "ImageScalingPoint",
    "ModelQualityPoint",
    "TrainingJob",
    "architecture_to_workload",
    "best_architecture_at_size",
    "cross_attention_matrix_shape",
    "crossover_frames",
    "cumulative_unet_similarity_bytes",
    "pareto_frontier",
    "quality_per_parameter",
    "scaling_rate",
    "self_attention_matrix_shape",
    "self_attention_seq_len",
    "similarity_matrix_bytes",
    "stage_sequence_lengths",
    "summarize_fleet",
    "sweep_frame_counts",
    "sweep_image_sizes",
    "synthesize_fleet",
]

"""FSDP step-cost and training-memory tests."""

import pytest

from repro.distributed.registry import machine_from_name
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.tensor import TensorSpec
from repro.models.llama import Llama, LlamaConfig
from repro.models.stable_diffusion import StableDiffusion
from repro.training.fsdp import (
    COLLECTIVE_LATENCY_S,
    fsdp_step_cost,
    scaling_sweep,
)
from repro.training.memory import (
    BYTES_PER_PARAM_TRAINING,
    activation_bytes_from_trace,
    estimate_training_memory,
    minimum_gpus_for_state,
)


@pytest.fixture(scope="module")
def sd_forward():
    """One SD UNet training forward at batch 1, flash attention."""
    model = StableDiffusion()
    ctx = ExecutionContext(attention_impl=AttentionImpl.FLASH)
    model.unet(ctx, TensorSpec((1, 4, 64, 64)))
    return model, ctx.trace


class TestFsdpStep:
    def test_step_decomposition(self, sd_forward):
        model, trace = sd_forward
        cost = fsdp_step_cost(trace, model.param_count(), world_size=64)
        assert cost.backward_compute_s == pytest.approx(
            2 * cost.forward_compute_s
        )
        assert cost.step_time_s >= cost.compute_s
        assert 0.0 <= cost.communication_fraction < 1.0

    def test_single_gpu_has_no_communication(self, sd_forward):
        model, trace = sd_forward
        cost = fsdp_step_cost(trace, model.param_count(), world_size=1)
        assert cost.communication_s == 0.0

    def test_communication_grows_across_nodes(self, sd_forward):
        model, trace = sd_forward
        intra = fsdp_step_cost(trace, model.param_count(), world_size=8)
        inter = fsdp_step_cost(trace, model.param_count(), world_size=64)
        assert inter.communication_s > 3 * intra.communication_s

    def test_overlap_hides_communication(self, sd_forward):
        model, trace = sd_forward
        hidden = fsdp_step_cost(
            trace, model.param_count(), world_size=64,
            overlap_fraction=0.9,
        )
        exposed = fsdp_step_cost(
            trace, model.param_count(), world_size=64,
            overlap_fraction=0.0,
        )
        assert hidden.step_time_s < exposed.step_time_s

    def test_h100_fabric_cheaper(self, sd_forward):
        model, trace = sd_forward
        a100 = fsdp_step_cost(
            trace, model.param_count(), world_size=128,
            machine="dgx-a100-80g",
        )
        h100 = fsdp_step_cost(
            trace, model.param_count(), world_size=128,
            machine="dgx-h100",
        )
        assert h100.communication_s < a100.communication_s

    def test_all_gather_is_one_ring_per_pass(self, sd_forward):
        """Launch latency plus (w-1)/w of a group over the bounding link:
        NVLink3 inside an 8-GPU node, HDR InfiniBand beyond it."""
        _, trace = sd_forward
        # 5e8 fp16 parameters in one group: a 1 GB payload.
        for world, link_bandwidth in ((2, 300e9), (8, 300e9), (16, 25e9)):
            cost = fsdp_step_cost(
                trace, 500_000_000, world_size=world, layer_groups=1
            )
            ring = COLLECTIVE_LATENCY_S + (
                1e9 * (world - 1) / world / link_bandwidth
            )
            assert cost.all_gather_s == 2 * ring  # forward + backward
            assert cost.reduce_scatter_s == ring

    def test_machine_name_or_spec(self, sd_forward):
        model, trace = sd_forward
        by_name = fsdp_step_cost(
            trace, model.param_count(), world_size=64, machine="dgx-h100"
        )
        by_spec = fsdp_step_cost(
            trace, model.param_count(), world_size=64,
            machine=machine_from_name("dgx-h100"),
        )
        assert by_name == by_spec
        with pytest.raises(ValueError, match="unknown machine"):
            fsdp_step_cost(
                trace, model.param_count(), world_size=64, machine="tpu-v9"
            )

    def test_invalid_world_size(self, sd_forward):
        model, trace = sd_forward
        for world_size in (0, -1, 2.5, float("nan")):
            with pytest.raises(ValueError, match="world_size"):
                fsdp_step_cost(
                    trace, model.param_count(), world_size=world_size
                )

    @pytest.mark.parametrize("field", ["layer_groups", "dtype_bytes"])
    @pytest.mark.parametrize(
        "value", [0, -4, -2, 2.5, float("nan"), float("inf")]
    )
    def test_invalid_count_fields_name_the_field(
        self, sd_forward, field, value
    ):
        # Before, layer_groups 0 or -4 priced an int 0 communication_s,
        # dtype_bytes -2 a negative one, NaN a NaN, and 2.5 failed inside
        # list multiplication.
        model, trace = sd_forward
        with pytest.raises(ValueError, match=field):
            fsdp_step_cost(
                trace, model.param_count(), world_size=64, **{field: value}
            )


class TestScalingSweep:
    def test_efficiency_non_increasing(self, sd_forward):
        model, trace = sd_forward
        points = scaling_sweep(
            trace, model.param_count(), [8, 64, 512]
        )
        efficiencies = [p.scaling_efficiency for p in points]
        assert efficiencies[0] == pytest.approx(1.0)
        assert all(
            a >= b - 1e-9 for a, b in zip(efficiencies, efficiencies[1:])
        )

    def test_throughput_grows_with_world(self, sd_forward):
        model, trace = sd_forward
        points = scaling_sweep(trace, model.param_count(), [8, 512])
        assert points[1].samples_per_second > points[0].samples_per_second

    def test_empty_sweep_rejected(self, sd_forward):
        model, trace = sd_forward
        with pytest.raises(ValueError):
            scaling_sweep(trace, model.param_count(), [])


class TestTrainingMemory:
    def test_state_sharding(self, sd_forward):
        model, trace = sd_forward
        one = estimate_training_memory(model, trace, world_size=1)
        many = estimate_training_memory(model, trace, world_size=64)
        assert one.model_state_bytes == pytest.approx(
            64 * many.model_state_bytes
        )
        assert one.activation_bytes == many.activation_bytes

    def test_state_is_16_bytes_per_param(self, sd_forward):
        model, trace = sd_forward
        estimate = estimate_training_memory(model, trace, world_size=1)
        assert estimate.model_state_bytes == pytest.approx(
            model.param_count() * BYTES_PER_PARAM_TRAINING
        )

    def test_batch_scales_activations(self, sd_forward):
        model, trace = sd_forward
        small = estimate_training_memory(
            model, trace, world_size=8, batch_per_gpu=1
        )
        big = estimate_training_memory(
            model, trace, world_size=8, batch_per_gpu=8
        )
        assert big.activation_bytes == pytest.approx(
            8 * small.activation_bytes
        )

    def test_activation_estimate_positive(self, sd_forward):
        _, trace = sd_forward
        assert activation_bytes_from_trace(trace) > 0

    def test_invalid_checkpoint_fraction(self, sd_forward):
        _, trace = sd_forward
        with pytest.raises(ValueError):
            activation_bytes_from_trace(trace, checkpoint_fraction=0.0)

    def test_utilization_against_a100(self, sd_forward):
        model, trace = sd_forward
        estimate = estimate_training_memory(
            model, trace, world_size=64, batch_per_gpu=8
        )
        assert 0.0 < estimate.utilization() < 2.0


class TestFigure1Mechanism:
    """The GPUs-per-parameter gap derived from the suite itself."""

    def test_llm_needs_many_gpus_for_state(self):
        big_llama = Llama(
            LlamaConfig(dim=8192, num_layers=80, num_heads=64,
                        ffn_hidden=28672)
        )
        assert big_llama.param_count() > 60e9
        assert minimum_gpus_for_state(big_llama) >= 20

    def test_tti_state_fits_on_one_gpu(self, sd_forward):
        model, _ = sd_forward
        assert minimum_gpus_for_state(model) == 1

    def test_tti_memory_utilization_is_activation_bound(self, sd_forward):
        """TTI training memory is dominated by activations, not state —
        why Fig 1's memory utilization stays high even when the model
        shards to almost nothing."""
        model, trace = sd_forward
        estimate = estimate_training_memory(
            model, trace, world_size=512, batch_per_gpu=16
        )
        assert estimate.activation_bytes > 3 * estimate.model_state_bytes

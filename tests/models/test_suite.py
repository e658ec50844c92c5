"""Model-suite-wide tests (uses the session-cached profiles)."""

import pytest

from repro.ir.context import ExecutionContext
from repro.ir.ops import OpCategory
from repro.kernels.estimator import CostEstimator
from repro.models.base import ModelArchitecture
from repro.models.registry import (
    DISPLAY_NAMES,
    MODEL_SUITE,
    build_model,
    suite_names,
)

EXPECTED_ARCHITECTURES = {
    "llama": ModelArchitecture.LLM,
    "imagen": ModelArchitecture.DIFFUSION_PIXEL,
    "stable_diffusion": ModelArchitecture.DIFFUSION_LATENT,
    "muse": ModelArchitecture.TRANSFORMER_TTI,
    "parti": ModelArchitecture.TRANSFORMER_TTI,
    "prod_image": ModelArchitecture.DIFFUSION_LATENT,
    "make_a_video": ModelArchitecture.TTV_DIFFUSION,
    "phenaki": ModelArchitecture.TTV_TRANSFORMER,
}


# Kernel launches each folded suite profile stands for, the sum of its
# events' fold factors: (baseline, flash).  Only the autoregressive
# decoders fold their decode loops (``repeat_scope``).
FOLDED_LAUNCHES = {
    "llama": (31_331, 23_011),
    "parti": (1_134_054, 789_894),
}


class TestRegistry:
    def test_eight_workloads(self):
        assert len(MODEL_SUITE) == 8

    def test_suite_order_matches_paper(self):
        assert suite_names() == [
            "llama", "imagen", "stable_diffusion", "muse", "parti",
            "prod_image", "make_a_video", "phenaki",
        ]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model("dalle3")

    def test_display_names_cover_suite(self):
        assert set(DISPLAY_NAMES) == set(MODEL_SUITE)

    @pytest.mark.parametrize("name", list(MODEL_SUITE))
    def test_architecture_labels(self, name, suite_models):
        assert suite_models[name].architecture is (
            EXPECTED_ARCHITECTURES[name]
        )

    @pytest.mark.parametrize("name", list(MODEL_SUITE))
    def test_describe_row(self, name, suite_models):
        row = suite_models[name].describe()
        assert row["name"] == name
        assert row["parameters"] > 0


class TestProfiles:
    def test_all_models_produce_events(self, suite_profiles):
        for name, (baseline, flash) in suite_profiles.items():
            assert len(baseline.trace) > 100, name
            assert len(flash.trace) > 100, name

    def test_flash_never_slower_end_to_end(self, suite_profiles):
        for name, (baseline, flash) in suite_profiles.items():
            assert flash.total_time_s <= baseline.total_time_s * 1.001, name

    def test_flash_traces_have_fewer_events(self, suite_profiles):
        for name, (baseline, flash) in suite_profiles.items():
            assert len(flash.trace) < len(baseline.trace), name

    def test_every_model_has_attention(self, suite_profiles):
        for name, (baseline, _) in suite_profiles.items():
            assert baseline.trace.attention_anchors(), name

    def test_diffusion_models_have_convolution(self, suite_profiles, suite_models):
        for name, (baseline, _) in suite_profiles.items():
            if suite_models[name].architecture.is_diffusion:
                conv_time = baseline.trace.time_by_category().get(
                    OpCategory.CONV, 0.0
                )
                assert conv_time > 0, name

    def test_llms_have_no_convolution(self, suite_profiles):
        baseline, _ = suite_profiles["llama"]
        assert OpCategory.CONV not in baseline.trace.time_by_category()

    def test_total_times_positive_and_bounded(self, suite_profiles):
        for name, (baseline, _) in suite_profiles.items():
            assert 0.05 < baseline.total_time_s < 300, name

    def test_param_counts_in_expected_ranges(self, suite_models):
        expected = {
            "llama": (6e9, 8e9),
            "imagen": (4e9, 8e9),
            "stable_diffusion": (0.8e9, 1.6e9),
            "muse": (3.5e9, 6e9),
            "parti": (15e9, 25e9),
            "prod_image": (1.5e9, 4e9),
            "make_a_video": (1.5e9, 4e9),
            "phenaki": (2e9, 4e9),
        }
        for name, (low, high) in expected.items():
            params = suite_models[name].param_count()
            assert low <= params <= high, f"{name}: {params/1e9:.2f}B"

    def test_profile_metadata(self, suite_profiles):
        baseline, flash = suite_profiles["stable_diffusion"]
        assert baseline.model_name == "stable_diffusion"
        assert baseline.attention_impl.value == "baseline"
        assert flash.attention_impl.value == "flash"
        assert baseline.parameters == flash.parameters


class TestFoldFactors:
    @pytest.mark.parametrize("name", sorted(FOLDED_LAUNCHES))
    def test_cost_is_one_launch_scaled_by_the_recorded_factor(
        self, name, suite_profiles
    ):
        # Emitted and replayed events alike: the recorded factor is the
        # one the cost was scaled by.
        for profile, launches in zip(
            suite_profiles[name], FOLDED_LAUNCHES[name]
        ):
            estimate = CostEstimator(profile.gpu).estimate
            events = profile.trace.events
            assert sum(event.repeat for event in events) == launches
            for event in events:
                assert event.cost == estimate(event.op).scaled(
                    event.repeat
                ), event.module_path

    def test_unfolded_models_record_one_launch_per_event(
        self, suite_profiles
    ):
        for name, profiles in suite_profiles.items():
            if name in FOLDED_LAUNCHES:
                continue
            for profile in profiles:
                assert all(event.repeat == 1 for event in profile.trace), name

    def test_replay_records_the_factors_execution_does(
        self, suite_profiles, suite_models
    ):
        cached = suite_profiles["llama"][0]
        # An estimator without the cost cache has no memo token, so the
        # context re-executes every module call instead of replaying.
        ctx = ExecutionContext(
            gpu=cached.gpu,
            estimator=CostEstimator(cached.gpu, use_cache=False),
        )
        assert ctx.memo_token is None
        suite_models["llama"].run_inference(ctx, batch=1)
        assert [event.repeat for event in ctx.trace] == [
            event.repeat for event in cached.trace
        ]

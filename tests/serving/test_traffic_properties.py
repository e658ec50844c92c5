"""Property tests pinning the client-structured workload layer.

Hypothesis searches random populations and seeds for violations of the
traffic contracts: arrivals sorted and inside the horizon, no arrival
inside a blackout window, per-client rates matching the configured
Pareto tail (Hill estimator), and the JSONL trace format being a
byte-identical fixed point of save -> load -> save.  These are the
invariants the recorded fleet
corpus and the determinism suite build on.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.traffic import (
    HEAVY_TIER_FRACTION,
    MEDIUM_TIER_FRACTION,
    TIER_NAMES,
    BurstModel,
    ClientPopulation,
    ModelTrafficCard,
    RateWindow,
    dumps_trace,
    generate_traffic,
    image_size_spec,
    loads_trace,
    poissonized,
    steps_spec,
    video_length_spec,
)

MODEL_NAMES = ("sd", "muse", "video")
PROPERTY_SPECS = (
    (),
    (steps_spec(),),
    (image_size_spec(),),
    (image_size_spec(), steps_spec()),
    (video_length_spec(),),
)


@st.composite
def burst_models(draw):
    mean_on = draw(st.floats(min_value=5.0, max_value=120.0))
    mean_off = draw(st.floats(min_value=5.0, max_value=600.0))
    p_on = mean_on / (mean_on + mean_off)
    cap = 1.0 / p_on
    on_factor = draw(st.floats(
        min_value=1.0, max_value=min(8.0, cap * 0.99)
    ))
    return BurstModel(
        mean_on_s=mean_on, mean_off_s=mean_off, on_factor=on_factor
    )


@st.composite
def populations(draw, max_clients=25):
    model_count = draw(st.integers(min_value=1, max_value=3))
    names = MODEL_NAMES[:model_count]
    raw_shares = [
        draw(st.floats(min_value=0.1, max_value=1.0)) for _ in names
    ]
    total = sum(raw_shares)
    cards = tuple(
        ModelTrafficCard(
            name=name,
            base_service_s=draw(
                st.floats(min_value=0.2, max_value=4.0)
            ),
            share=share / total,
            properties=draw(st.sampled_from(PROPERTY_SPECS)),
        )
        for name, share in zip(names, raw_shares)
    )
    burst = draw(st.one_of(st.none(), burst_models()))
    rate_windows = tuple(
        RateWindow(
            start_s=draw(st.floats(min_value=0.0, max_value=200.0)),
            duration_s=draw(st.floats(min_value=1.0, max_value=200.0)),
            multiplier=draw(st.floats(min_value=0.0, max_value=4.0)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2)))
    )
    return ClientPopulation(
        cards=cards,
        n_clients=draw(st.integers(min_value=0, max_value=max_clients)),
        mean_rate_per_client=draw(
            st.floats(min_value=0.0, max_value=0.3)
        ),
        tail_alpha=draw(st.floats(min_value=1.2, max_value=3.0)),
        burst=burst,
        model_loyalty=draw(st.floats(min_value=0.0, max_value=1.0)),
        property_spread=draw(st.floats(min_value=0.0, max_value=2.0)),
        rate_windows=rate_windows,
        service_jitter=draw(st.floats(min_value=0.0, max_value=0.4)),
    )


class TestStreamInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        pop=populations(),
        duration=st.floats(min_value=20.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_arrivals_sorted_and_inside_horizon(
        self, pop, duration, seed
    ):
        trace = generate_traffic(pop, duration_s=duration, seed=seed)
        arrivals = trace.batch.arrival_s
        assert (np.diff(arrivals) >= 0).all()
        if len(trace):
            assert arrivals.min() >= 0.0
            assert arrivals.max() <= duration
        assert trace.batch.request_ids.tolist() == list(
            range(len(trace))
        )
        assert (trace.batch.service_s > 0).all()
        if len(trace):
            assert trace.client_ids.min() >= 0
            assert trace.client_ids.max() < pop.n_clients
        assert len(trace.client_rates) == pop.n_clients
        assert (trace.client_rates >= 0).all()

    @settings(max_examples=50, deadline=None)
    @given(
        pop=populations(),
        duration=st.floats(min_value=20.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_tier_partition_matches_rank_cut(self, pop, duration, seed):
        trace = generate_traffic(pop, duration_s=duration, seed=seed)
        n = pop.n_clients
        counts = [
            int((trace.client_tiers == tier).sum())
            for tier in range(len(TIER_NAMES))
        ]
        assert sum(counts) == n
        if n:
            assert counts[0] == math.ceil(HEAVY_TIER_FRACTION * n)
            assert counts[1] == min(
                math.ceil(MEDIUM_TIER_FRACTION * n), n - counts[0]
            )


    @settings(max_examples=50, deadline=None)
    @given(
        pop=populations(),
        start=st.floats(min_value=0.0, max_value=300.0),
        length=st.floats(min_value=1.0, max_value=200.0),
        duration=st.floats(min_value=20.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_blackout_window_is_silent(
        self, pop, start, length, duration, seed
    ):
        # A 0x window zeroes every envelope piece it covers, whatever
        # other windows and burst phases overlap it.
        pop = dataclasses.replace(pop, rate_windows=pop.rate_windows + (
            RateWindow(start, length, multiplier=0.0),
        ))
        trace = generate_traffic(pop, duration_s=duration, seed=seed)
        arrivals = trace.batch.arrival_s
        assert not (
            (arrivals > start) & (arrivals < start + length)
        ).any()


class TestPowerLawTail:
    @settings(max_examples=8, deadline=None)
    @given(
        alpha=st.floats(min_value=1.4, max_value=2.4),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_hill_estimator_recovers_configured_alpha(
        self, alpha, seed
    ):
        """The top-of-sample Hill estimate of the per-client rate tail
        must land near the configured Pareto exponent (n=4000, k=400:
        the estimator's sampling error is well under the ±0.6 band)."""
        pop = ClientPopulation(
            cards=(ModelTrafficCard("sd", 1.0, 1.0),),
            n_clients=4000,
            mean_rate_per_client=0.001,
            tail_alpha=alpha,
        )
        trace = generate_traffic(pop, duration_s=1.0, seed=seed)
        rates = np.sort(trace.client_rates)[::-1]
        k = 400
        hill = 1.0 / np.mean(np.log(rates[:k] / rates[k]))
        assert abs(hill - alpha) < 0.6


class TestTraceFormat:
    @settings(max_examples=40, deadline=None)
    @given(
        pop=populations(),
        duration=st.floats(min_value=20.0, max_value=300.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_save_load_save_is_byte_identical(
        self, pop, duration, seed
    ):
        trace = generate_traffic(pop, duration_s=duration, seed=seed)
        text = dumps_trace(trace)
        assert dumps_trace(loads_trace(text)) == text

    @settings(max_examples=25, deadline=None)
    @given(
        pop=populations(),
        duration=st.floats(min_value=20.0, max_value=300.0),
        seed=st.integers(min_value=0, max_value=2**16),
        twin_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_poissonized_twin_preserves_request_multiset(
        self, pop, duration, seed, twin_seed
    ):
        trace = generate_traffic(pop, duration_s=duration, seed=seed)
        twin = poissonized(trace, seed=twin_seed)
        assert len(twin) == len(trace)
        original = sorted(zip(
            trace.batch.model_ids.tolist(),
            trace.batch.service_s.tolist(),
        ))
        twinned = sorted(zip(
            twin.batch.model_ids.tolist(),
            twin.batch.service_s.tolist(),
        ))
        assert twinned == original
        assert (np.diff(twin.batch.arrival_s) >= 0).all()
        assert dumps_trace(loads_trace(dumps_trace(twin))) == (
            dumps_trace(twin)
        )

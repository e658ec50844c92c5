"""Every experiment runs, renders, and its paper claims hold.

``results`` is the session's one battery run (``tests/conftest.py``).
"""

import pytest

from repro.experiments import runner, serve3_traffic
from repro.experiments.runner import EXPERIMENTS, run_experiments


class TestHarness:
    def test_twenty_one_experiments_registered(self):
        assert len(EXPERIMENTS) == 21

    def test_ids_cover_paper_evaluation(self):
        expected = {
            "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13",
            "table1", "table2", "table3",
            "dist1", "dist2", "serve1", "serve2", "serve3", "serve4",
            "obs1",
        }
        assert set(EXPERIMENTS) == expected

    def test_run_experiments_expands_all(self, monkeypatch):
        """'all' runs every registered experiment once, in registry
        order, and may be mixed with ids (stubs stand in for the runs)."""
        for name in EXPERIMENTS:
            monkeypatch.setitem(
                runner.EXPERIMENTS, name, lambda name=name: name
            )
        assert run_experiments(["all"]) == list(EXPERIMENTS)
        assert run_experiments(["fig4", "all"]) == [
            "fig4", *EXPERIMENTS
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiments(["fig99"])


class TestServe3Population:
    def test_launch_day_spike_over_base_load(self):
        """Outside the spike the offered load is ``BASE_LOAD`` of the
        pool; the 3x spike over the middle fifth of the day lifts the
        time average to 1.4x that."""
        pop = serve3_traffic._population(
            {"stable_diffusion": 2.0, "muse": 0.5}
        )
        (spike,) = pop.rate_windows
        duration = serve3_traffic.DURATION_S
        assert spike.start_s == pytest.approx(0.4 * duration)
        assert spike.duration_s == pytest.approx(0.2 * duration)
        assert spike.multiplier == 3.0
        base_load = (
            pop.n_clients * pop.mean_rate_per_client
            * pop.mean_service_s() / serve3_traffic.SERVERS
        )
        assert base_load == pytest.approx(serve3_traffic.BASE_LOAD)
        average = 1.0 + (spike.multiplier - 1.0) * (
            spike.duration_s / duration
        )
        assert average == pytest.approx(1.4)


class TestResults:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_has_rows_and_renders(self, results, name):
        result = results[name]
        assert result.rows, name
        assert result.experiment_id == name
        rendered = result.render()
        assert name in rendered
        for header in result.headers:
            assert header in rendered

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_claim_holds(self, results, name):
        result = results[name]
        assert result.claims, f"{name} checks nothing"
        failing = [
            claim for claim in result.claims if not claim.holds
        ]
        assert not failing, (
            f"{name}: "
            + "; ".join(
                f"{claim.claim} (paper {claim.paper}, measured "
                f"{claim.measured})"
                for claim in failing
            )
        )

    def test_row_widths_match_headers(self, results):
        for name, result in results.items():
            for row in result.rows:
                assert len(row) == len(result.headers), name

    def test_claim_render_marks_pass(self, results):
        rendered = results["table2"].render()
        assert "PASS" in rendered

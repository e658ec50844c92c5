"""Every experiment runs, renders, and its paper claims hold.

``results`` is the session's one battery run (``tests/conftest.py``).
"""

import pytest

from repro.experiments import runner
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

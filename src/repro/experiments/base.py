"""Experiment result structure shared by every table/figure module."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.reporting.table import render_table


@dataclass(frozen=True)
class ClaimCheck:
    """One paper claim compared against the reproduced measurement."""

    claim: str
    paper: str
    measured: str
    holds: bool


def fleet_values(report, slo) -> dict:
    """The values every serving experiment keeps for one fleet run.

    Goodput, the terminal-state counts (as floats) and each model's
    p50/p95/p99, from a :class:`~repro.serving.fleet.FleetReport` and
    its :class:`~repro.serving.slo.SloReport`.
    """
    return {
        "goodput": slo.goodput,
        "completed": float(report.completed_count),
        "failed": float(report.failed_count),
        "shed": float(report.shed_count),
        "per_model": {
            entry.model: {
                "p50_s": entry.p50_s,
                "p95_s": entry.p95_s,
                "p99_s": entry.p99_s,
            }
            for entry in slo.per_model
        },
    }


@dataclass
class ExperimentResult:
    """Rows + claim checks for one table or figure.

    ``values`` is a JSON-ready tree (str keys; lists, not tuples) of
    the full-precision numbers the rows and claims are formatted from.
    ``tests/golden/<experiment_id>.json`` pins it.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    claims: list[ClaimCheck] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def all_claims_hold(self) -> bool:
        return all(claim.holds for claim in self.claims)

    def to_dict(self) -> dict:
        """JSON-serializable form (for plotting pipelines)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[str(cell) for cell in row] for row in self.rows],
            "claims": [
                {
                    "claim": claim.claim,
                    "paper": claim.paper,
                    "measured": claim.measured,
                    "holds": claim.holds,
                }
                for claim in self.claims
            ],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        """Full text report: table, claim checks, notes."""
        parts = [
            render_table(
                self.headers,
                self.rows,
                title=f"[{self.experiment_id}] {self.title}",
            )
        ]
        if self.claims:
            claim_rows = [
                [
                    "PASS" if claim.holds else "MISS",
                    claim.claim,
                    claim.paper,
                    claim.measured,
                ]
                for claim in self.claims
            ]
            parts.append(
                render_table(
                    ["check", "claim", "paper", "measured"],
                    claim_rows,
                    title="Claim checks",
                )
            )
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)

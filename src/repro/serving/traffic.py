"""Client-structured traffic generation and replayable traces.

The workload generators in :mod:`repro.serving.workload` draw
homogeneous (or rate-modulated) Poisson arrivals: every request is
exchangeable with every other.  Production TTI/TTV traffic is not like
that — ServeGen (arXiv:2505.09999) shows it is *client-structured*:
per-client request rates are heavy-tailed (a few integrators dominate),
individual clients alternate between bursty "on" phases and quiet "off"
phases (arrivals are autocorrelated, not memoryless), and clients
differ systematically in *what* they ask for (image sizes, video
lengths, denoising-step counts).  Those three structures change
capacity answers at equal offered load, which is why this module exists
as a peer of — not a patch to — the Poisson generators.

Three layers:

* **Population model** — :class:`ClientPopulation` describes a client
  base over :class:`ModelTrafficCard` entries (per-model base service
  time, traffic share, and :class:`PropertySpec` request-property
  distributions).  Per-client rates follow a Pareto law with tail
  exponent ``tail_alpha``; per-client burst phases follow a two-state
  Markov-modulated (on/off) process (:class:`BurstModel`); per-client
  preferences are controlled by ``model_loyalty`` (how concentrated a
  client is on its favourite model) and ``property_spread`` (how far a
  client's property mix tilts towards cheap or expensive variants).
  Time structure is layered on with piecewise-constant
  :class:`RateWindow` envelopes in ``rate_windows``: a launch-day spike
  is one window with multiplier 3, a blackout one with multiplier 0.
* **Generator** — :func:`generate_traffic` samples a concrete
  :class:`TrafficTrace` from a population under the byte-determinism
  contract below.
* **Trace format** — :class:`TrafficTrace` round-trips loss-lessly
  through a versioned JSON-lines schema (:func:`dumps_trace` /
  :func:`loads_trace` / :func:`save_trace` / :func:`load_trace`), and
  holds the stream as a columnar :class:`RequestBatch`
  (``trace.batch``), so the fleet engine replays it natively.

:func:`poissonized` builds the control arm for experiments: the same
request multiset (identical offered load and service-time distribution)
re-arrived as a homogeneous Poisson process with the client structure
erased.  ``serve3_traffic`` uses the pair to show a policy conclusion
that flips between the two.

Seeding contract
----------------

Like every generator in the serving layer, :func:`generate_traffic` is
a pure function of its arguments: all randomness flows through one
``numpy.random.default_rng(seed)`` (PCG64) consumed in a single
documented draw order:

1. **Population vectors** (one full-length column each, in order):
   per-client rate uniforms (inverse-CDF Pareto transform), per-client
   favourite-model uniforms, per-client property-tilt uniforms, and —
   only when ``burst`` is configured — per-client initial burst-phase
   uniforms.
2. **Per client, in ascending client id**: unit-exponential burst
   segment lengths in blocks of 16 until the horizon is covered
   (skipped entirely when ``burst`` is ``None``); then, for each
   positive-rate constant piece of that client's rate function in time
   order, one Poisson count draw followed by that many arrival-position
   uniforms.  Zero-rate and zero-length pieces draw nothing.
3. **Per-request columns, in global arrival order** (stable sort of
   the concatenated arrivals; ties keep client-id order): all model
   uniforms, then all property-combo uniforms, then all service
   jitters.

The same arguments therefore produce *byte-identical* traces — the
serialized JSONL compares equal — across processes and platforms.
Tests pin the contract (``tests/serving/test_determinism.py``); any
change to a draw order is a breaking change to recorded traces.

All times are **seconds** of simulation time; all rates are requests
per second.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import jsonl
from repro.ordered_sum import ordered_sum
from repro.serving.faults import _require_finite
from repro.serving.workload import RequestBatch, WorkloadMix

TRACE_SCHEMA = "repro-traffic-trace"
"""Schema identifier written into every trace header record."""

TRACE_VERSION = 1
"""Current trace schema version (bumped on any incompatible change)."""

TIER_NAMES = ("heavy", "medium", "light")
"""Client tiers in rank order; indices are the on-wire tier ids."""

HEAVY_TIER_FRACTION = 0.05
"""Top fraction of clients (by rate) classified as the heavy tier."""

MEDIUM_TIER_FRACTION = 0.35
"""Next fraction of clients classified as the medium tier."""


@dataclass(frozen=True)
class PropertySpec:
    """One request property and its population-level distribution.

    ``values`` are the discrete settings clients choose between (e.g.
    image edge lengths, frame counts, denoising steps), ``weights``
    their population-average probabilities, and ``scales`` the
    multiplier each setting applies to the model's base service time —
    the paper's scaling laws in miniature (image pixels scale superlinearly,
    video cost scales with frame count, diffusion cost with step count).
    """

    name: str
    values: tuple[float, ...]
    weights: tuple[float, ...]
    scales: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("property needs a name")
        if not self.values:
            raise ValueError("property needs at least one value")
        if not (
            len(self.values) == len(self.weights) == len(self.scales)
        ):
            raise ValueError("values/weights/scales must be aligned")
        for index, (value, weight, scale) in enumerate(
            zip(self.values, self.weights, self.scales)
        ):
            _require_finite(f"values[{index}]", value)
            _require_finite(
                f"weights[{index}]", weight, weight >= 0, "non-negative"
            )
            _require_finite(f"scales[{index}]", scale, scale > 0, "positive")
        total = ordered_sum(self.weights)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"weights must sum to 1, got {total}")


def image_size_spec(
    values: tuple[float, ...] = (512.0, 768.0, 1024.0),
    weights: tuple[float, ...] = (0.6, 0.3, 0.1),
) -> PropertySpec:
    """Output-resolution property (service scales ~quadratic in edge)."""
    base = values[0]
    scales = tuple((v / base) ** 2 for v in values)
    return PropertySpec(
        name="image_size", values=values, weights=weights, scales=scales
    )


def steps_spec(
    values: tuple[float, ...] = (20.0, 30.0, 50.0),
    weights: tuple[float, ...] = (0.5, 0.4, 0.1),
) -> PropertySpec:
    """Denoising-step-count property (service scales linearly)."""
    base = values[0]
    scales = tuple(v / base for v in values)
    return PropertySpec(
        name="steps", values=values, weights=weights, scales=scales
    )


def video_length_spec(
    values: tuple[float, ...] = (16.0, 32.0, 64.0),
    weights: tuple[float, ...] = (0.7, 0.25, 0.05),
) -> PropertySpec:
    """Frame-count property (service scales linearly in frames)."""
    base = values[0]
    scales = tuple(v / base for v in values)
    return PropertySpec(
        name="video_frames", values=values, weights=weights, scales=scales
    )


@dataclass(frozen=True)
class ModelTrafficCard:
    """One model's traffic profile inside a population.

    ``base_service_s`` is the service time of the cheapest property
    combination (all scales multiply it); ``share`` is the model's
    population-average traffic share; ``properties`` are the request
    properties clients vary (empty means one fixed request shape).
    """

    name: str
    base_service_s: float
    share: float
    properties: tuple[PropertySpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("card needs a model name")
        _require_finite(
            "base_service_s", self.base_service_s,
            self.base_service_s > 0, "positive",
        )
        _require_finite("share", self.share, self.share >= 0, "non-negative")
        names = [spec.name for spec in self.properties]
        if len(set(names)) != len(names):
            raise ValueError("property names must be unique per card")


@dataclass(frozen=True)
class TraceCombo:
    """One concrete property combination of a model.

    ``props`` maps property names to chosen values (sorted by name for
    a canonical on-wire form); ``scale`` multiplies the model's base
    service time; ``weight`` is the population-average probability.
    """

    props: tuple[tuple[str, float], ...]
    scale: float
    weight: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("combo scale must be positive")
        if self.weight < 0:
            raise ValueError("combo weight must be non-negative")
        if tuple(sorted(self.props)) != self.props:
            raise ValueError("combo props must be sorted by name")


def combos_for_card(card: ModelTrafficCard) -> tuple[TraceCombo, ...]:
    """Enumerate a card's property combinations, cheapest first.

    The cartesian product of every :class:`PropertySpec`'s values,
    sorted by ascending service scale (ties broken by the sorted
    property tuple) — the ordering :func:`generate_traffic`'s
    property-tilt transform relies on.
    """
    if not card.properties:
        return (TraceCombo(props=(), scale=1.0, weight=1.0),)
    combos = []
    axes = [range(len(spec.values)) for spec in card.properties]
    for choice in itertools.product(*axes):
        props = tuple(sorted(
            (spec.name, float(spec.values[i]))
            for spec, i in zip(card.properties, choice)
        ))
        scale = math.prod(
            spec.scales[i] for spec, i in zip(card.properties, choice)
        )
        weight = math.prod(
            spec.weights[i] for spec, i in zip(card.properties, choice)
        )
        combos.append(TraceCombo(props=props, scale=scale, weight=weight))
    return tuple(sorted(combos, key=lambda c: (c.scale, c.props)))


@dataclass(frozen=True)
class BurstModel:
    """Two-state Markov-modulated (on/off) per-client burst process.

    Each client alternates between exponentially-distributed "on"
    phases (mean ``mean_on_s``) where its rate is multiplied by
    ``on_factor`` and "off" phases (mean ``mean_off_s``) where it is
    multiplied by the solved ``off_factor`` — chosen so the stationary
    time-average multiplier is exactly 1 and the client's long-run rate
    equals its Pareto-drawn rate.  ``on_factor`` may not exceed
    ``1 / p_on`` (otherwise the off phase would need a negative rate).
    """

    mean_on_s: float
    mean_off_s: float
    on_factor: float

    def __post_init__(self) -> None:
        _require_finite(
            "mean_on_s", self.mean_on_s, self.mean_on_s > 0, "positive"
        )
        _require_finite(
            "mean_off_s", self.mean_off_s, self.mean_off_s > 0, "positive"
        )
        _require_finite(
            "on_factor", self.on_factor, self.on_factor >= 1.0, ">= 1"
        )
        if self.on_factor * self.p_on > 1.0 + 1e-12:
            raise ValueError(
                "on factor exceeds 1/p_on; off phase rate would be "
                "negative"
            )

    @property
    def p_on(self) -> float:
        """Stationary probability of the on phase."""
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    @property
    def off_factor(self) -> float:
        """Off-phase rate multiplier (solved for unit mean)."""
        p = self.p_on
        return max(0.0, (1.0 - p * self.on_factor) / (1.0 - p))


@dataclass(frozen=True)
class RateWindow:
    """A piecewise-constant global rate multiplier over a window.

    Overlapping windows multiply.  ``multiplier`` may be 0 (a blackout
    — e.g. the failed region in a failover scenario) but never
    negative.
    """

    start_s: float
    duration_s: float
    multiplier: float

    def __post_init__(self) -> None:
        _require_finite(
            "start_s", self.start_s, self.start_s >= 0, "non-negative"
        )
        _require_finite(
            "duration_s", self.duration_s, self.duration_s > 0, "positive"
        )
        _require_finite(
            "multiplier", self.multiplier, self.multiplier >= 0,
            "non-negative",
        )


@dataclass(frozen=True)
class ClientPopulation:
    """A client base over model traffic cards.

    Attributes:
        cards: model traffic cards; shares must sum to 1.
        n_clients: population size (0 is a valid empty population).
        mean_rate_per_client: population-mean request rate per client
            (req/s; 0 yields an empty stream).
        tail_alpha: Pareto tail exponent of per-client rates (> 1 so
            the mean exists; smaller is heavier-tailed).
        burst: per-client on/off burst process, or ``None`` for
            steady clients.
        model_loyalty: probability in [0, 1] that a request goes to
            the client's favourite model instead of the shared mix.
        property_spread: >= 0; how strongly clients tilt towards cheap
            or expensive property combos (0 = everyone uses the
            population-average mix).
        rate_windows: global piecewise-constant rate multipliers
            (a launch-day spike, a blackout, ...).
        service_jitter: uniform ±fraction applied to service times.
    """

    cards: tuple[ModelTrafficCard, ...]
    n_clients: int
    mean_rate_per_client: float
    tail_alpha: float = 1.8
    burst: BurstModel | None = None
    model_loyalty: float = 0.0
    property_spread: float = 0.0
    rate_windows: tuple[RateWindow, ...] = ()
    service_jitter: float = 0.05

    def __post_init__(self) -> None:
        if not self.cards:
            raise ValueError("population needs at least one model card")
        names = [card.name for card in self.cards]
        if len(set(names)) != len(names):
            raise ValueError("model names must be unique")
        total = ordered_sum(card.share for card in self.cards)
        if not math.isclose(total, 1.0, rel_tol=1e-6):
            raise ValueError(f"card shares must sum to 1, got {total}")
        if self.n_clients < 0:
            raise ValueError("client count must be non-negative")
        _require_finite(
            "mean_rate_per_client", self.mean_rate_per_client,
            self.mean_rate_per_client >= 0, "non-negative",
        )
        _require_finite(
            "tail_alpha", self.tail_alpha, self.tail_alpha > 1.0,
            "> 1 (finite mean)",
        )
        _require_finite(
            "model_loyalty", self.model_loyalty,
            0.0 <= self.model_loyalty <= 1.0, "in [0, 1]",
        )
        _require_finite(
            "property_spread", self.property_spread,
            self.property_spread >= 0, "non-negative",
        )
        _require_finite(
            "service_jitter", self.service_jitter,
            0.0 <= self.service_jitter < 1.0, "in [0, 1)",
        )

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(card.name for card in self.cards)

    def mean_service_s(self) -> float:
        """Population-average service time (jitter averages out)."""
        total = 0.0
        for card in self.cards:
            combo_mean = ordered_sum(
                combo.weight * combo.scale
                for combo in combos_for_card(card)
            )
            total += card.share * card.base_service_s * combo_mean
        return total


def cards_from_mix(
    mix: WorkloadMix,
    properties: dict[str, tuple[PropertySpec, ...]] | None = None,
) -> tuple[ModelTrafficCard, ...]:
    """Lift a :class:`WorkloadMix` into model traffic cards.

    Card order follows the mix's dict insertion order (part of the
    mix's value, same as the Poisson generators).  ``properties``
    optionally attaches per-model property specs.
    """
    props = properties or {}
    return tuple(
        ModelTrafficCard(
            name=name,
            base_service_s=mix.service_s[name],
            share=mix.shares[name],
            properties=props.get(name, ()),
        )
        for name in mix.shares
    )


# --------------------------------------------------------------------
# Tiers


def assign_tiers(client_rates: np.ndarray) -> np.ndarray:
    """Classify clients into heavy/medium/light tiers by rank.

    Deterministic rank cut (ties broken by client id): the top
    ``HEAVY_TIER_FRACTION`` of clients by rate are heavy, the next
    ``MEDIUM_TIER_FRACTION`` medium, the rest light.  Rank-based
    rather than quantile-based so zero-rate and duplicate-rate clients
    partition stably.
    """
    n = len(client_rates)
    tiers = np.full(n, TIER_NAMES.index("light"), dtype=np.int64)
    if n == 0:
        return tiers
    order = np.lexsort((np.arange(n), -np.asarray(client_rates)))
    n_heavy = math.ceil(HEAVY_TIER_FRACTION * n)
    n_medium = math.ceil(MEDIUM_TIER_FRACTION * n)
    tiers[order[:n_heavy]] = TIER_NAMES.index("heavy")
    tiers[order[n_heavy:n_heavy + n_medium]] = (
        TIER_NAMES.index("medium")
    )
    return tiers


# --------------------------------------------------------------------
# Trace


@dataclass(frozen=True, eq=False)
class TrafficTrace:
    """A replayable client-structured request stream.

    The request stream itself lives in ``batch`` (a
    :class:`RequestBatch` with arrivals sorted ascending and
    ``request_ids == 0..n-1``, so a request id doubles as a row
    index); ``client_ids`` / ``combo_ids`` annotate each request with
    its client and property combination; ``client_rates`` /
    ``client_tiers`` describe the client base.  ``meta`` carries the
    generator parameters (or provenance for derived traces) and
    round-trips through the header record.

    The fleet engine accepts a ``TrafficTrace`` directly wherever it
    accepts requests and ingests ``batch`` as-is.
    """

    models: tuple[str, ...]
    combos: tuple[tuple[TraceCombo, ...], ...]
    batch: RequestBatch
    client_ids: np.ndarray
    combo_ids: np.ndarray
    client_rates: np.ndarray
    client_tiers: np.ndarray
    duration_s: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("trace duration must be positive")
        if len(self.models) != len(self.combos):
            raise ValueError("combo tables must align with models")
        if tuple(self.batch.models) != tuple(self.models):
            raise ValueError("batch model table must match trace")
        n = len(self.batch)
        if not (len(self.client_ids) == len(self.combo_ids) == n):
            raise ValueError("request annotations must be aligned")
        if len(self.client_rates) != len(self.client_tiers):
            raise ValueError("client columns must be aligned")
        if n:
            arrivals = self.batch.arrival_s
            if float(np.min(np.diff(arrivals), initial=0.0)) < 0:
                raise ValueError("trace arrivals must be sorted")
            if not np.array_equal(
                self.batch.request_ids, np.arange(n, dtype=np.int64)
            ):
                raise ValueError("trace request ids must be 0..n-1")
            if int(self.client_ids.min()) < 0 or (
                int(self.client_ids.max()) >= max(1, self.n_clients)
            ):
                raise ValueError("client ids must index the client base")
            counts = np.array(
                [len(table) for table in self.combos], dtype=np.int64
            )
            if int(self.combo_ids.min()) < 0 or bool(
                (self.combo_ids >= counts[self.batch.model_ids]).any()
            ):
                raise ValueError("combo ids must index the combo table")
        if len(self.client_tiers) and not (
            0 <= int(self.client_tiers.min())
            and int(self.client_tiers.max()) < len(TIER_NAMES)
        ):
            raise ValueError("tier ids must index TIER_NAMES")

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def n_clients(self) -> int:
        return len(self.client_rates)

    @property
    def offered_rate(self) -> float:
        """Realized offered load (requests per second)."""
        return len(self.batch) / self.duration_s


def dumps_trace(trace: TrafficTrace) -> str:
    """Serialize a trace to the versioned JSONL schema (v1).

    The file is in the canonical-JSONL envelope (:mod:`repro.jsonl`):
    line 1 is the header record (schema id, version, model and combo
    tables, client count, duration, meta); then one ``client`` record
    per client in id order; then one ``request`` record per request in
    arrival order.  Equal traces serialize to identical bytes and
    save -> load -> save is the identity (pinned by tests).
    """
    header = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_VERSION,
        "duration_s": float(trace.duration_s),
        "models": list(trace.models),
        "combos": [
            [
                {
                    "props": dict(combo.props),
                    "scale": combo.scale,
                    "weight": combo.weight,
                }
                for combo in table
            ]
            for table in trace.combos
        ],
        "num_clients": trace.n_clients,
        "meta": trace.meta,
    }
    rates = trace.client_rates.tolist()
    tiers = trace.client_tiers.tolist()
    arrivals = trace.batch.arrival_s.tolist()
    services = trace.batch.service_s.tolist()
    model_ids = trace.batch.model_ids.tolist()
    clients = trace.client_ids.tolist()
    combo_ids = trace.combo_ids.tolist()
    return jsonl.dumps(header, itertools.chain(
        ({
            "kind": "client",
            "id": client,
            "rate": rates[client],
            "tier": TIER_NAMES[tiers[client]],
        } for client in range(trace.n_clients)),
        ({
            "kind": "request",
            "id": i,
            "client": clients[i],
            "model": trace.models[model_ids[i]],
            "combo": combo_ids[i],
            "arrival_s": arrivals[i],
            "service_s": services[i],
        } for i in range(len(trace.batch))),
    ))


def _dense_id(record: dict, ids: Iterator[int]) -> None:
    """Require the record's ``id`` to be the next of ``0, 1, 2, ...``."""
    expected = next(ids)
    if record["id"] != expected:
        raise ValueError(
            f"id {record['id']!r}, expected {expected} (ids are 0..n-1 "
            "in file order)"
        )


def loads_trace(text: str) -> TrafficTrace:
    """Parse a JSONL trace (inverse of :func:`dumps_trace`).

    Client and request ids must run ``0..n-1`` in file order, every
    tier and model must be known, and the header's client count must
    match; errors name the line (or the request) at fault.
    """
    client_ids, request_ids = itertools.count(), itertools.count()

    def client(record: dict) -> tuple[float, int]:
        _dense_id(record, client_ids)
        if record["tier"] not in TIER_NAMES:
            raise ValueError(f"unknown tier {record['tier']!r}")
        return float(record["rate"]), TIER_NAMES.index(record["tier"])

    def request(record: dict) -> tuple:
        _dense_id(record, request_ids)
        return (
            float(record["arrival_s"]), float(record["service_s"]),
            str(record["model"]), int(record["client"]),
            int(record["combo"]),
        )

    header, records = jsonl.loads(
        text, schema=TRACE_SCHEMA, version=TRACE_VERSION,
        parsers={"client": client, "request": request},
    )
    models = tuple(header["models"])
    combos = tuple(
        tuple(
            TraceCombo(
                props=tuple(sorted(
                    (name, float(value))
                    for name, value in entry["props"].items()
                )),
                scale=float(entry["scale"]),
                weight=float(entry["weight"]),
            )
            for entry in table
        )
        for table in header["combos"]
    )
    num_clients = int(header["num_clients"])
    if len(records["client"]) != num_clients:
        raise ValueError(
            f"header promised {num_clients} clients, file has "
            f"{len(records['client'])}"
        )
    rates, tiers = zip(*records["client"]) if num_clients else ((), ())
    arrivals, services, names, clients, combo_ids = (
        zip(*records["request"]) if records["request"] else ((),) * 5
    )
    model_index = {name: i for i, name in enumerate(models)}
    for i, name in enumerate(names):
        if name not in model_index:
            raise ValueError(
                f"request {i} names model {name!r}, not in the header's "
                f"model table {models}"
            )
    batch = RequestBatch(
        models=models,
        arrival_s=np.array(arrivals, dtype=np.float64),
        service_s=np.array(services, dtype=np.float64),
        model_ids=np.array(
            [model_index[name] for name in names], dtype=np.int64
        ),
        request_ids=np.arange(len(names), dtype=np.int64),
    )
    return TrafficTrace(
        models=models,
        combos=combos,
        batch=batch,
        client_ids=np.array(clients, dtype=np.int64),
        combo_ids=np.array(combo_ids, dtype=np.int64),
        client_rates=np.array(rates, dtype=np.float64),
        client_tiers=np.array(tiers, dtype=np.int64),
        duration_s=float(header["duration_s"]),
        meta=dict(header["meta"]),
    )


def save_trace(trace: TrafficTrace, path: str) -> None:
    """Write a trace to ``path`` in the JSONL schema."""
    Path(path).write_text(dumps_trace(trace), encoding="utf-8")


def load_trace(path: str) -> TrafficTrace:
    """Read a trace written by :func:`save_trace`."""
    return loads_trace(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------
# Generation


def _envelope_pieces(
    windows: tuple[RateWindow, ...], duration_s: float
) -> list[tuple[float, float, float]]:
    """Piecewise-constant global rate envelope over [0, duration)."""
    breaks = {0.0, duration_s}
    for window in windows:
        if window.start_s < duration_s:
            breaks.add(window.start_s)
            breaks.add(min(duration_s, window.start_s + window.duration_s))
    edges = sorted(breaks)
    pieces = []
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        mult = 1.0
        for window in windows:
            if window.start_s <= mid < window.start_s + window.duration_s:
                mult *= window.multiplier
        pieces.append((lo, hi, mult))
    return pieces


def _client_segments(
    rng: np.random.Generator,
    burst: BurstModel | None,
    u_phase: float,
    duration_s: float,
) -> list[tuple[float, float, float]]:
    """One client's on/off burst segments over [0, duration)."""
    if burst is None:
        return [(0.0, duration_s, 1.0)]
    on = bool(u_phase < burst.p_on)
    segments: list[tuple[float, float, float]] = []
    t = 0.0
    while t < duration_s:
        block = rng.exponential(1.0, size=16)
        for unit in block.tolist():
            mean = burst.mean_on_s if on else burst.mean_off_s
            factor = burst.on_factor if on else burst.off_factor
            end = min(duration_s, t + unit * mean)
            if end > t:
                segments.append((t, end, factor))
            t += unit * mean
            on = not on
            if t >= duration_s:
                break
    return segments


def generate_traffic(
    population: ClientPopulation,
    *,
    duration_s: float,
    seed: int = 0,
) -> TrafficTrace:
    """Sample a :class:`TrafficTrace` from a client population.

    Deterministic per the module seeding contract (one seeded PCG64
    generator, documented draw order: population vectors, then
    per-client burst/count/position draws in client-id order, then
    per-request model/combo/jitter columns in arrival order).
    """
    _require_finite("duration_s", duration_s, duration_s > 0, "positive")
    rng = np.random.default_rng(seed)
    n_clients = population.n_clients
    alpha = population.tail_alpha
    # Draw 1: population vectors.
    u_rate = rng.random(n_clients)
    pareto_scale = (
        population.mean_rate_per_client * (alpha - 1.0) / alpha
    )
    # Inverse-CDF Pareto: rate = scale * u^(-1/alpha); clamp u away
    # from 0 so a pathological draw cannot overflow.
    client_rates = pareto_scale * np.maximum(u_rate, 1e-12) ** (
        -1.0 / alpha
    )
    shares = np.array(
        [card.share for card in population.cards], dtype=np.float64
    )
    share_cum = np.cumsum(shares)
    share_cum[-1] = 1.0
    favorites = np.searchsorted(
        share_cum, rng.random(n_clients), side="right"
    ).astype(np.int64)
    tilts = rng.random(n_clients)
    phases = (
        rng.random(n_clients)
        if population.burst is not None
        else np.zeros(n_clients)
    )

    envelope = _envelope_pieces(population.rate_windows, duration_s)
    env_starts = [piece[0] for piece in envelope]
    rates_list = client_rates.tolist()
    phases_list = phases.tolist()

    # Draw 2: per-client burst segments and arrival positions.
    arrival_parts: list[np.ndarray] = []
    client_parts: list[np.ndarray] = []
    for client in range(n_clients):
        base_rate = rates_list[client]
        segments = _client_segments(
            rng, population.burst, phases_list[client], duration_s
        )
        positions: list[np.ndarray] = []
        for seg_lo, seg_hi, seg_mult in segments:
            lo_index = max(0, bisect_right(env_starts, seg_lo) - 1)
            for env_lo, env_hi, env_mult in envelope[lo_index:]:
                if env_lo >= seg_hi:
                    break
                lo = max(seg_lo, env_lo)
                hi = min(seg_hi, env_hi)
                rate = base_rate * seg_mult * env_mult
                if hi <= lo or rate <= 0.0:
                    continue
                count = int(rng.poisson(rate * (hi - lo)))
                if count:
                    positions.append(
                        lo + (hi - lo) * np.sort(rng.random(count))
                    )
        if positions:
            arrivals = np.concatenate(positions)
            arrival_parts.append(arrivals)
            client_parts.append(
                np.full(len(arrivals), client, dtype=np.int64)
            )
    if arrival_parts:
        all_arrivals = np.concatenate(arrival_parts)
        all_clients = np.concatenate(client_parts)
    else:
        all_arrivals = np.empty(0, dtype=np.float64)
        all_clients = np.empty(0, dtype=np.int64)
    order = np.argsort(all_arrivals, kind="stable")
    all_arrivals = all_arrivals[order]
    all_clients = all_clients[order]
    n = len(all_arrivals)

    # Draw 3: per-request columns in arrival order.
    u_model = rng.random(n)
    u_combo = rng.random(n)
    jitter = rng.uniform(
        -population.service_jitter, population.service_jitter, size=n
    )

    mix_cum = np.cumsum(shares / float(shares.sum()))
    mix_cum[-1] = 1.0
    loyalty = population.model_loyalty
    loyal = u_model < loyalty
    if loyalty < 1.0:
        rescaled = np.clip(
            (u_model - loyalty) / (1.0 - loyalty), 0.0, 1.0
        )
    else:
        rescaled = np.zeros(n)
    mix_pick = (mix_cum < rescaled[:, None]).sum(axis=1).astype(np.int64)
    mix_pick = np.minimum(mix_pick, len(population.cards) - 1)
    model_ids = np.where(
        loyal, favorites[all_clients], mix_pick
    ).astype(np.int64)

    combo_tables = tuple(
        combos_for_card(card) for card in population.cards
    )
    max_combos = max(len(table) for table in combo_tables)
    combo_cum = np.ones((len(combo_tables), max_combos))
    combo_scales = np.ones((len(combo_tables), max_combos))
    for m, table in enumerate(combo_tables):
        weights = np.array([combo.weight for combo in table])
        total = float(weights.sum())
        cum = np.cumsum(weights / total) if total > 0 else np.ones(
            len(table)
        )
        cum[-1] = 1.0
        combo_cum[m, :len(table)] = cum
        combo_scales[m, :len(table)] = [
            combo.scale for combo in table
        ]
    # Per-client tilt: combo uniform is power-transformed by
    # exp(spread * (tilt - 0.5)); combos are sorted cheapest-first, so
    # gamma < 1 favours expensive variants and gamma > 1 cheap ones,
    # while spread = 0 leaves the population-average mix untouched.
    gamma = np.exp(
        population.property_spread * (tilts - 0.5)
    )[all_clients] if n else np.empty(0)
    tilted = u_combo ** gamma if n else u_combo
    combo_ids = (
        combo_cum[model_ids] < tilted[:, None]
    ).sum(axis=1).astype(np.int64)
    counts = np.array(
        [len(table) for table in combo_tables], dtype=np.int64
    )
    combo_ids = np.minimum(combo_ids, counts[model_ids] - 1)

    base_service = np.array(
        [card.base_service_s for card in population.cards],
        dtype=np.float64,
    )
    service = (
        base_service[model_ids]
        * combo_scales[model_ids, combo_ids]
        * (1.0 + jitter)
    )
    batch = RequestBatch(
        models=population.model_names,
        arrival_s=all_arrivals,
        service_s=service,
        model_ids=model_ids,
        request_ids=np.arange(n, dtype=np.int64),
    )
    meta = {
        "generator": "client-structured",
        "seed": seed,
        "n_clients": n_clients,
        "mean_rate_per_client": population.mean_rate_per_client,
        "tail_alpha": population.tail_alpha,
        "model_loyalty": population.model_loyalty,
        "property_spread": population.property_spread,
        "service_jitter": population.service_jitter,
        "burst": (
            None if population.burst is None else {
                "mean_on_s": population.burst.mean_on_s,
                "mean_off_s": population.burst.mean_off_s,
                "on_factor": population.burst.on_factor,
            }
        ),
        "rate_windows": [
            [w.start_s, w.duration_s, w.multiplier]
            for w in population.rate_windows
        ],
    }
    return TrafficTrace(
        models=population.model_names,
        combos=combo_tables,
        batch=batch,
        client_ids=all_clients,
        combo_ids=combo_ids,
        client_rates=client_rates,
        client_tiers=assign_tiers(client_rates),
        duration_s=duration_s,
        meta=meta,
    )


def poissonized(trace: TrafficTrace, *, seed: int = 0) -> TrafficTrace:
    """The memoryless control arm of a client-structured trace.

    Same request multiset — identical offered load, identical
    service-time and model/combo composition — re-arrived as a
    homogeneous Poisson process with the client structure erased
    (requests are randomly permuted, arrivals are sorted uniforms over
    the horizon, and all requests belong to one synthetic client).
    Draw order: one permutation, then one arrival-uniform column.
    ``serve3_traffic`` compares a trace against its poissonized twin
    to show conclusions that hinge on client structure.
    """
    rng = np.random.default_rng(seed)
    n = len(trace.batch)
    perm = rng.permutation(n)
    arrivals = np.sort(rng.random(n)) * trace.duration_s
    batch = RequestBatch(
        models=trace.models,
        arrival_s=arrivals,
        service_s=trace.batch.service_s[perm],
        model_ids=trace.batch.model_ids[perm],
        request_ids=np.arange(n, dtype=np.int64),
    )
    client_rates = np.array(
        [n / trace.duration_s], dtype=np.float64
    )
    return TrafficTrace(
        models=trace.models,
        combos=trace.combos,
        batch=batch,
        client_ids=np.zeros(n, dtype=np.int64),
        combo_ids=trace.combo_ids[perm],
        client_rates=client_rates,
        client_tiers=assign_tiers(client_rates),
        duration_s=trace.duration_s,
        meta={**trace.meta, "poissonized_seed": seed},
    )

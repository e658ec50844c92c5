"""Multi-GPU study: sharding the paper's generators across machines.

The paper characterizes single-A100 inference; this study asks the
Section V question — what does scaling out actually buy? — with the
`repro.distributed` layer:

1. **Strong scaling** — SD 2.1 and Make-A-Video tensor-parallel sharded
   over 1/2/4/8 GPUs on two hardware backends (DGX-A100 and DGX-H100),
   with communication broken out from compute.
2. **Topology sensitivity** — the same TP=4 shard on NVSwitch vs plain
   PCIe: the interconnect, not the GPU, decides whether sharding helps.
3. **Weak scaling** — data-parallel replicas with the batch growing in
   step, the fleet-throughput regime of Figure 1.
4. **Sharded serving** — a TP=2 replica vs a single-GPU replica as the
   one dynamic-batching server of a `repro.serving` fleet pool.

Run:  python examples/distributed_study.py
"""

from repro.distributed import (
    machine_from_name,
    render_timeline_summary,
    scaling_table,
    strong_scaling,
    weak_scaling,
)
from repro.models import build_model
from repro.profiler import profile_sharded
from repro.serving import (
    WorkloadMix,
    generate_requests,
    pool_from_replicas,
    sharded_replica,
    simulate_fleet,
)

WORLDS = (1, 2, 4, 8)
MACHINES = ("dgx-a100-80g", "dgx-h100")
MODELS = ("stable_diffusion", "make_a_video")


def strong_scaling_study() -> None:
    for model_name in MODELS:
        for machine_name in MACHINES:
            model = build_model(model_name)
            points = strong_scaling(model, machine_name, WORLDS)
            print(
                scaling_table(
                    points,
                    title=(
                        f"Strong scaling (TP): {model_name} on "
                        f"{machine_name}"
                    ),
                )
            )
            print()


def topology_study() -> None:
    model = build_model("stable_diffusion")
    for machine_name in ("dgx-a100-80g", "pcie-a100"):
        machine = machine_from_name(machine_name)
        result = profile_sharded(
            model, machine=machine, world=4, strategy="tp",
            keep_entries=False,
        )
        print(
            f"TP=4 on {machine_name} "
            f"({machine.topology.intra_node.name}): "
            f"{result.total_time_s * 1e3:.0f} ms total, "
            f"{result.comm_time_s * 1e3:.0f} ms comm "
            f"({result.comm_fraction * 100:.0f}%)"
        )
    print()


def weak_scaling_study() -> None:
    model = build_model("stable_diffusion")
    points = weak_scaling(model, "dgx-a100-80g", (1, 2, 4))
    print(
        scaling_table(
            points,
            title="Weak scaling (DP, batch = world): stable_diffusion "
            "on dgx-a100-80g",
        )
    )
    print()


def timeline_study() -> None:
    model = build_model("stable_diffusion")
    result = profile_sharded(
        model, machine="dgx-h100", world=2, strategy="tp",
        keep_entries=False,
    )
    print(render_timeline_summary(result.timelines))
    print()


def serving_study() -> None:
    model = build_model("stable_diffusion")
    mix = WorkloadMix(
        shares={"stable_diffusion": 1.0},
        service_s={"stable_diffusion": 1.0},
    )
    requests = generate_requests(
        mix, arrival_rate=0.6, duration_s=60.0, seed=7
    )
    for world in (1, 2):
        replica = sharded_replica(
            model, machine="dgx-a100-80g", world=world, batches=(1, 2, 4),
        )
        pool = pool_from_replicas("sd", [replica], servers=1, max_batch=4)
        report = simulate_fleet(requests, [pool])
        throughput = report.completed_count / report.makespan_s
        print(
            f"{replica.strategy} replica ({replica.gpus} GPU(s)): "
            f"mean latency {report.latency_s.mean():.2f}s, "
            f"throughput {throughput:.2f} req/s, "
            f"per-GPU {throughput / replica.gpus:.2f} req/s"
        )
    print()


def main() -> None:
    """Run the full multi-GPU study."""
    strong_scaling_study()
    topology_study()
    weak_scaling_study()
    timeline_study()
    serving_study()


if __name__ == "__main__":
    main()

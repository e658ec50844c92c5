"""Operator sharding and the hardware/machine registry."""

import pytest

from repro.distributed.registry import (
    MACHINES,
    MachineSpec,
    machine_from_name,
    machine_names,
    register_machine,
    render_machine_table,
)
from repro.distributed.sharding import (
    ShardRole,
    even_split,
    proportional_split,
    shard_op,
    split_dim_name,
)
from repro.distributed.topology import Topology
from repro.distributed.collectives import IB_HDR, NVLINK3
from repro.hw.spec import A100_80GB
from repro.ir.ops import Conv2d, Elementwise, FusedAttention, Gemm


class TestIntegerSplits:
    def test_proportional_split_sums_exactly(self):
        for total in (1, 7, 96, 1023):
            parts = proportional_split(total, [3, 1, 2])
            assert sum(parts) == total

    def test_proportional_to_weights(self):
        assert proportional_split(12, [2, 1, 1]) == [6, 3, 3]

    def test_zero_weight_gets_zero(self):
        parts = proportional_split(10, [1, 0, 1])
        assert parts[1] == 0
        assert sum(parts) == 10

    def test_even_split(self):
        assert even_split(10, 4) == [3, 3, 2, 2]
        assert sum(even_split(7, 3)) == 7

    def test_huge_totals_stay_exact(self):
        # Regression: the float-scaled implementation lost integer
        # resolution above 2**53 (sums came out off by -62 / +5 at
        # these totals); the split must be exact integer arithmetic.
        for total in (2**60 + 1, 10**17 + 3):
            parts = proportional_split(total, [3, 1, 2])
            assert sum(parts) == total
            assert all(p >= 0 for p in parts)

    def test_huge_uniform_split_matches_even_split(self):
        total = 2**60 + 5
        assert proportional_split(total, [1, 1, 1, 1]) == even_split(
            total, 4
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            proportional_split(-1, [1])
        with pytest.raises(ValueError):
            proportional_split(4, [])
        with pytest.raises(ValueError):
            proportional_split(4, [0, 0])
        with pytest.raises(ValueError):
            even_split(4, 0)


class TestShardOp:
    def test_gemm_column_split_preserves_flops(self):
        op = Gemm("g", m=128, n=512, k=256, b_is_weight=True)
        shards = shard_op(op, ShardRole.COLUMN, [1, 1, 1, 1])
        assert sum(s.flops() for s in shards if s) == pytest.approx(
            op.flops()
        )
        assert all(s.n == 128 for s in shards if s)

    def test_gemm_row_split_divides_k(self):
        op = Gemm("g", m=128, n=512, k=256, b_is_weight=True)
        shards = shard_op(op, ShardRole.ROW, [1, 1])
        assert all(s.k == 128 for s in shards if s)
        assert sum(s.flops() for s in shards if s) == pytest.approx(
            op.flops()
        )

    def test_attention_head_split(self):
        op = FusedAttention(
            "a", batch=2, seq_q=64, seq_kv=64, head_dim=64, num_heads=8
        )
        shards = shard_op(op, ShardRole.HEAD, [1, 1, 1, 1])
        assert all(s.num_heads == 2 for s in shards if s)
        assert sum(s.flops() for s in shards if s) == pytest.approx(
            op.flops()
        )

    def test_zero_share_rank_is_idle(self):
        op = Elementwise("e", numel=1000)
        shards = shard_op(op, ShardRole.SEQUENCE, [1, 0])
        assert shards[1] is None
        assert shards[0].numel == 1000

    def test_grouped_conv_falls_back_to_batch(self):
        op = Conv2d(
            "dw", batch=4, in_channels=64, out_channels=64,
            h=32, w=32, groups=64,
        )
        shards = shard_op(op, ShardRole.COLUMN, [1, 1])
        # Channel split would break group divisibility; the partitioner
        # slices the batch instead.
        assert all(s.out_channels == 64 for s in shards if s)
        assert sum(s.batch for s in shards if s) == 4

    def test_unknown_op_type_rejected(self):
        class Mystery:
            pass

        with pytest.raises(TypeError):
            split_dim_name(Mystery(), ShardRole.SEQUENCE)


class TestMachineRegistry:
    def test_required_backends_present(self):
        names = machine_names()
        assert "dgx-a100-80g" in names
        assert "dgx-h100" in names
        assert "mi300x-node" in names  # non-NVIDIA part

    def test_lookup_roundtrip(self):
        machine = machine_from_name("dgx-h100")
        assert machine.gpu.name.startswith("H100")
        assert machine.topology.intra_node.name == "NVLink4"

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            machine_from_name("tpu-v9")

    def test_register_duplicate_rejected(self):
        with pytest.raises(ValueError):
            register_machine(MACHINES["dgx-h100"])

    def test_register_replace(self):
        original = MACHINES["dgx-a100-40g"]
        try:
            register_machine(original, replace=True)
        finally:
            assert machine_from_name("dgx-a100-40g") is original

    def test_table_lists_every_machine(self):
        table = render_machine_table()
        for name in machine_names():
            assert name in table

    def test_topology_link_selection(self):
        topo = Topology(
            "t", intra_node=NVLINK3, inter_node=IB_HDR, gpus_per_node=8
        )
        assert topo.link_for(8) is NVLINK3
        assert topo.link_for(16) is IB_HDR
        assert topo.nodes_for(16) == 2
        assert topo.nodes_for(64) == 8
        assert topo.nodes_for(9) == 2  # a partial node rounds up
        with pytest.raises(ValueError):
            topo.link_for(0)

    def test_spec_resolves_to_itself(self):
        machine = machine_from_name("dgx-h100")
        assert machine_from_name(machine) is machine
        custom = MachineSpec(
            name="unregistered-box", gpu=A100_80GB,
            topology=machine.topology,
        )
        assert machine_from_name(custom) is custom

    def test_machine_gpu_specs_are_real(self):
        assert machine_from_name("dgx-a100-80g").gpu is A100_80GB

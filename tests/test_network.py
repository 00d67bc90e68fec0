"""Tests for the interconnect model."""

import numpy as np
import pytest

from repro.machine.network import MachineSpec


class TestMachineSpec:
    def test_defaults(self):
        m = MachineSpec()
        assert m.num_nodes == 256
        assert m.nodes_per_supernode == 256
        assert m.nic_bytes_per_s == pytest.approx(25e9)
        assert m.inter_supernode_bytes_per_s == pytest.approx(25e9 / 8)

    def test_supernode_of(self):
        m = MachineSpec(num_nodes=1024, nodes_per_supernode=256)
        assert m.num_supernodes == 4
        sn = m.supernode_of(np.array([0, 255, 256, 1023]))
        assert sn.tolist() == [0, 0, 1, 3]

    def test_supernode_count_rounds_up(self):
        m = MachineSpec(num_nodes=300, nodes_per_supernode=256)
        assert m.num_supernodes == 2

    def test_same_supernode(self):
        m = MachineSpec(num_nodes=512)
        assert bool(m.same_supernode(0, 255))
        assert not bool(m.same_supernode(0, 256))

    def test_node_out_of_range(self):
        m = MachineSpec(num_nodes=8)
        with pytest.raises(ValueError):
            m.supernode_of(8)

    def test_bandwidth_for(self):
        m = MachineSpec()
        assert m.bandwidth_for(False) == pytest.approx(25e9)
        assert m.bandwidth_for(True) == pytest.approx(25e9 / 8)

    def test_collective_latency_grows_with_participants(self):
        m = MachineSpec(num_nodes=4096)
        assert m.collective_latency(1024) > m.collective_latency(4)
        with pytest.raises(ValueError):
            m.collective_latency(0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            MachineSpec(num_nodes=0)
        with pytest.raises(ValueError):
            MachineSpec(fat_tree_oversubscription=0.5)
        with pytest.raises(ValueError):
            MachineSpec(nodes_per_supernode=0)


class TestCollectiveLatencyExact:
    """The integer ceil(log2 P) equals the float formula it replaced."""

    @staticmethod
    def _float_formula(m, p):
        return m.p2p_latency_s + m.hop_latency_s * float(np.ceil(np.log2(max(p, 2))))

    def test_every_participant_count_to_4096(self):
        m = MachineSpec(num_nodes=4096)
        for p in range(1, 4097):
            assert m.collective_latency(p) == self._float_formula(m, p)

    def test_powers_of_two_and_neighbours_to_2_40(self):
        m = MachineSpec()
        for k in range(1, 41):
            for p in (2**k - 1, 2**k, 2**k + 1):
                assert m.collective_latency(p) == self._float_formula(m, p), p

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_numpy_integer_participants(self, dtype):
        m = MachineSpec()
        for p in (1, 2, 3, 16, 255, 256, 257, 4096):
            got = m.collective_latency(dtype(p))
            assert type(got) is float
            assert got == self._float_formula(m, p)

    def test_zero_participants_still_raises(self):
        with pytest.raises(ValueError):
            MachineSpec().collective_latency(0)

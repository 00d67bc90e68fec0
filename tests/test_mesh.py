"""Tests for the process mesh."""

import numpy as np
import pytest

from repro.machine.network import MachineSpec
from repro.runtime.mesh import ProcessMesh


class TestMeshShape:
    def test_rank_coords_roundtrip(self):
        mesh = ProcessMesh(4, 8)
        for r in range(4):
            for c in range(8):
                rank = mesh.rank_of(r, c)
                row, col = mesh.coords(rank)
                assert (int(row), int(col)) == (r, c)

    def test_row_major(self):
        mesh = ProcessMesh(2, 3)
        assert mesh.rank_of(1, 0) == 3

    def test_row_and_col_ranks(self):
        mesh = ProcessMesh(3, 4)
        assert mesh.row_ranks(1).tolist() == [4, 5, 6, 7]
        assert mesh.col_ranks(2).tolist() == [2, 6, 10]

    def test_bad_coords(self):
        mesh = ProcessMesh(2, 2)
        with pytest.raises(ValueError):
            mesh.rank_of(2, 0)
        with pytest.raises(ValueError):
            mesh.coords(4)
        with pytest.raises(ValueError):
            mesh.row_ranks(5)
        with pytest.raises(ValueError):
            mesh.col_ranks(-1)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ProcessMesh(0, 4)

    def test_machine_too_small(self):
        with pytest.raises(ValueError, match="nodes"):
            ProcessMesh(10, 10, machine=MachineSpec(num_nodes=50))


class TestOwnership:
    def test_block_distribution(self):
        mesh = ProcessMesh(2, 2)  # 4 ranks
        owners = mesh.owner_of(np.arange(8), 8)
        assert owners.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_uneven_blocks(self):
        mesh = ProcessMesh(1, 3)
        # 7 vertices, block size 3: [0,3), [3,6), [6,7)
        assert mesh.vertex_range(0, 7) == (0, 3)
        assert mesh.vertex_range(2, 7) == (6, 7)
        assert mesh.owner_of(6, 7) == 2

    def test_every_vertex_owned_exactly_once(self):
        mesh = ProcessMesh(3, 5)
        n = 101
        owners = mesh.owner_of(np.arange(n), n)
        for rank in range(mesh.num_ranks):
            lo, hi = mesh.vertex_range(rank, n)
            assert np.all(owners[lo:hi] == rank)

    def test_vertex_out_of_range(self):
        mesh = ProcessMesh(2, 2)
        with pytest.raises(ValueError):
            mesh.owner_of(8, 8)


class TestSupernodeMapping:
    def test_rows_map_to_supernodes(self):
        # 16x16 mesh on a 256-node machine with 16-node supernodes:
        # each row is exactly one supernode.
        machine = MachineSpec(num_nodes=256, nodes_per_supernode=16)
        mesh = ProcessMesh(16, 16, machine=machine)
        for row in range(16):
            sn = mesh.supernode_of_rank(mesh.row_ranks(row))
            assert len(set(sn.tolist())) == 1

    def test_columns_cross_supernodes(self):
        machine = MachineSpec(num_nodes=256, nodes_per_supernode=16)
        mesh = ProcessMesh(16, 16, machine=machine)
        sn = mesh.supernode_of_rank(mesh.col_ranks(0))
        assert len(set(sn.tolist())) == 16

    def test_no_machine_means_one_supernode(self):
        mesh = ProcessMesh(4, 4)
        sn = mesh.supernode_of_rank(np.arange(16))
        assert np.all(sn == 0)

    def test_split_intra_inter(self):
        machine = MachineSpec(num_nodes=8, nodes_per_supernode=4)
        mesh = ProcessMesh(2, 4, machine=machine)
        bytes_to = np.array([100.0, 10, 10, 10, 5, 5, 5, 5])
        intra, inter = mesh.split_intra_inter(0, bytes_to)
        assert intra == 30.0  # ranks 1-3, self excluded
        assert inter == 20.0  # ranks 4-7

    def test_split_shape_validated(self):
        mesh = ProcessMesh(2, 2)
        with pytest.raises(ValueError):
            mesh.split_intra_inter(0, np.zeros(3))

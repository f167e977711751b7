"""Fig. 1 machine/dataset presets."""

import pytest

from repro.cluster import (
    ABCI,
    DEEPCAM,
    FIG1_DATASETS,
    FUGAKU,
    IMAGENET1K,
    TOP500_MACHINES,
)
from repro.utils.units import GB, TB


class TestMachines:
    def test_fifteen_systems(self):
        assert len(TOP500_MACHINES) == 15

    def test_evaluation_systems_present(self):
        assert ABCI.name in TOP500_MACHINES
        assert FUGAKU.name in TOP500_MACHINES

    def test_abci_parameters(self):
        assert ABCI.dl_designed
        assert ABCI.local_bytes_per_node == 1600 * GB
        assert ABCI.ranks_per_node == 4
        assert ABCI.link_bw > 0 and ABCI.pfs_total_bw > 0

    def test_fugaku_local_mode_capacity(self):
        # 1.6 TB shared by 16 nodes -> ~50 GB dedicated per node (§II).
        assert FUGAKU.local_bytes_per_node == 50 * GB

    def test_some_systems_have_no_local_storage(self):
        zero = [m for m in TOP500_MACHINES.values() if not m.has_local_storage()]
        assert len(zero) >= 3  # Sunway, Tianhe-2A, JUWELS Booster, Dammam-7

    def test_network_attached_flagged(self):
        na = {m.name for m in TOP500_MACHINES.values() if m.network_attached}
        assert na == {"Frontera", "Piz Daint", "Trinity"}

    def test_dl_designed_starred(self):
        starred = {m.name for m in TOP500_MACHINES.values() if m.dl_designed}
        assert "ABCI" in starred


class TestDatasets:
    def test_nine_datasets(self):
        assert len(FIG1_DATASETS) == 9

    def test_key_sizes(self):
        assert IMAGENET1K.nbytes == 140 * GB
        assert IMAGENET1K.samples == 1_200_000
        assert DEEPCAM.nbytes == int(8.2 * TB)

    def test_sample_bytes(self):
        assert IMAGENET1K.sample_bytes == pytest.approx(140 * GB / 1.2e6)
        assert DEEPCAM.sample_bytes > 50e6  # ~70 MB samples

    def test_fig1_conclusion_most_datasets_do_not_fit(self):
        """The paper's core motivation: on most systems, most datasets exceed
        node-local storage."""
        no_fit = 0
        total = 0
        for machine in TOP500_MACHINES.values():
            for ds in FIG1_DATASETS:
                total += 1
                if not machine.fits_dataset(ds.nbytes):
                    no_fit += 1
        assert no_fit / total > 0.5

    def test_deepcam_fits_nowhere(self):
        assert all(
            not m.fits_dataset(DEEPCAM.nbytes) for m in TOP500_MACHINES.values()
        )

    def test_imagenet1k_fits_on_dl_systems(self):
        assert ABCI.fits_dataset(IMAGENET1K.nbytes)
        assert not FUGAKU.fits_dataset(IMAGENET1K.nbytes)

"""Machine and dataset presets: the Figure 1 landscape plus the two
evaluation systems (ABCI, Fugaku) with full performance parameters.

Figure 1 compares dedicated node-local storage on fifteen of the fastest
TOP500 systems (November 2020 list) against the sizes of widely used deep
learning datasets.  Capacities below follow the paper's description:

* dark-blue bars = SSDs physically in compute nodes,
* light-blue bars = network-attached flash, displayed as the *per-node
  share* (Frontera, Piz Daint, Trinity),
* zero = neither (classic HPC systems),
* ``dl_designed`` marks systems the paper stars as built for DL.
* Fugaku's 1.6 TB SSD is shared by 16 nodes and exposed in "local mode" as
  up to ~50 GB of dedicated per-node capacity (§II).

Exact public per-node numbers vary by source; values here are the
documented order-of-magnitude figures the paper's argument rests on, and
the benchmark prints them next to each dataset so the fit/no-fit conclusion
(most datasets exceed node-local storage) is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, MB, TB

__all__ = ["MachineSpec", "DatasetSpec", "TOP500_MACHINES", "FIG1_DATASETS"]


@dataclass(frozen=True)
class MachineSpec:
    """A compute system; perf fields are only populated for ABCI/Fugaku."""

    name: str
    nodes: int
    local_bytes_per_node: int  # dedicated node-local (or per-node share of) flash
    network_attached: bool = False  # light-blue bars of Fig. 1
    dl_designed: bool = False  # starred systems
    # -- performance parameters (evaluation systems only) ------------------
    ranks_per_node: int = 4
    local_read_latency_s: float = 0.0  # per sample file from local SSD
    local_bw: float = 0.0  # bytes/s local SSD streaming
    pfs_total_bw: float = 0.0  # aggregate PFS bandwidth, bytes/s
    pfs_client_bw: float = 0.0  # per-client cap, bytes/s
    pfs_meta_latency_s: float = 0.0  # base per-file metadata+open latency
    pfs_meta_congestion: float = 0.0  # latency multiplier slope per client
    pfs_meta_saturation: int = 128  # clients beyond which metadata saturates
    pfs_straggler_coeff: float = 0.0  # slowest/mean spread amplitude
    pfs_straggler_tau: float = 80.0  # spread ~ 1 + coeff*(1-exp(-M/tau))
    link_bw: float = 0.0  # per-rank injection bandwidth, bytes/s
    allreduce_bw: float = 0.0  # effective bus bandwidth of the gradient ring
    link_latency_s: float = 0.0  # per-message latency
    alltoall_congestion: float = 0.0  # slope of congestion with worker count
    local_write_latency_s: float = 0.0  # per-file cost installing a received sample
    local_write_bw: float = 1.5e9  # bytes/s streaming write of received samples
    straggler_wait_fraction: float = 0.55  # mean wait / (slowest - mean) IO
    exchange_sync_coeff: float = 0.0  # per-epoch exchange barrier ~ sqrt(M)

    def has_local_storage(self) -> bool:
        """Whether the system has any per-node flash at all."""
        return self.local_bytes_per_node > 0

    def fits_dataset(self, dataset_bytes: int) -> bool:
        """Can the full dataset be replicated onto one node's local storage
        (the current state of practice the paper challenges)?"""
        return self.local_bytes_per_node >= dataset_bytes


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset's name, byte size and sample count."""
    name: str
    nbytes: int
    samples: int
    reference: str = ""

    @property
    def sample_bytes(self) -> float:
        """Average bytes per sample."""
        return self.nbytes / self.samples


# Calibration notes (anchors from the paper, §V-F / Fig. 9 / Fig. 10, all at
# ImageNet-1K sample granularity ~117 KB/file):
#  * LS I/O at 512 workers, DenseNet: ~8 s/epoch  -> ~3.4 ms/file local.
#  * GS I/O at 512 workers: mean 19.6 s (-> ~8.4 ms/file incl. metadata
#    congestion), slowest worker 142 s (-> spread ~7x at M=512).
#  * GS total ~5x LS at 128 workers (straggler-dominated).
#  * partial-0.1 ~= LS up to 512 workers; visibly degrades at 1024-2048
#    (20-40 iterations -> little compute to overlap, all-to-all congestion).
ABCI = MachineSpec(
    name="ABCI",
    nodes=1088,
    local_bytes_per_node=1600 * GB,
    dl_designed=True,
    ranks_per_node=4,
    local_read_latency_s=3.4e-3,
    local_bw=2.0e9,
    pfs_total_bw=150e9,
    pfs_client_bw=1.0e9,
    pfs_meta_latency_s=1.5e-3,
    pfs_meta_congestion=0.0355,
    pfs_meta_saturation=128,
    pfs_straggler_coeff=6.3,
    pfs_straggler_tau=80.0,
    link_bw=1.25e9,  # EDR InfiniBand ~100 Gb/s per node, 4 ranks share
    allreduce_bw=5.0e9,  # NVLink-assisted hierarchical ring
    link_latency_s=1.0e-3,  # per-sample message incl. software overhead
    alltoall_congestion=0.002,
    local_write_latency_s=8.0e-3,  # np.save + metadata + eviction per sample
    straggler_wait_fraction=0.55,
    exchange_sync_coeff=20.0,
)

FUGAKU = MachineSpec(
    name="Fugaku",
    nodes=158_976,
    local_bytes_per_node=50 * GB,  # 1.6 TB shared SSD / 16 nodes, local mode
    ranks_per_node=4,
    local_read_latency_s=5.0e-3,  # shared SSD: slightly slower per file
    local_bw=1.0e9,
    pfs_total_bw=1.5e12,
    pfs_client_bw=0.5e9,
    pfs_meta_latency_s=2.0e-3,
    pfs_meta_congestion=0.02,
    pfs_meta_saturation=256,
    pfs_straggler_coeff=5.5,
    pfs_straggler_tau=120.0,
    link_bw=0.85e9,  # TofuD ~6.8 GB/s node injection, 4 ranks + overhead
    allreduce_bw=3.0e9,  # TofuD ring with 6D-torus locality
    link_latency_s=0.8e-3,
    alltoall_congestion=0.0015,
    local_write_latency_s=10.0e-3,  # shared SSD: pricier installs
    straggler_wait_fraction=0.55,
    exchange_sync_coeff=16.0,
)

# The remaining thirteen Fig. 1 systems (capacity landscape only).
TOP500_MACHINES: dict[str, MachineSpec] = {
    m.name: m
    for m in [
        FUGAKU,
        MachineSpec("Summit", 4608, 1600 * GB),
        MachineSpec("Sierra", 4320, 1600 * GB),
        MachineSpec("Sunway TaihuLight", 40_960, 0),
        MachineSpec("Selene", 560, 7680 * GB, dl_designed=True),
        MachineSpec("Tianhe-2A", 16_000, 0),
        MachineSpec("JUWELS Booster", 936, 0),
        MachineSpec("HPC5", 1820, 1600 * GB),
        MachineSpec("Frontera", 8008, 186 * GB, network_attached=True),
        MachineSpec("Dammam-7", 1120, 0),
        MachineSpec("Marconi-100", 980, 1600 * GB),
        MachineSpec("Piz Daint", 5704, 27 * GB, network_attached=True),
        MachineSpec("Trinity", 19_420, 190 * GB, network_attached=True),
        ABCI,
        MachineSpec("Lassen", 788, 1600 * GB),
    ]
}

FIG1_DATASETS: list[DatasetSpec] = [
    DatasetSpec("Google OpenImages", 18 * TB, 9_000_000, "[4]"),
    DatasetSpec("DeepCAM", int(8.2 * TB), 122_000, "[5]"),
    DatasetSpec("C4 (cleaned CommonCrawl)", int(7.0 * TB), 365_000_000, "[6]"),
    DatasetSpec("JFT-300M features", int(2.5 * TB), 300_000_000, "[3]"),
    DatasetSpec("YouTube-8M features", int(1.5 * TB), 8_000_000, "[2]"),
    DatasetSpec("ImageNet-21K (subset)", int(1.1 * TB), 9_300_000, "[7]"),
    DatasetSpec("Open Catalyst 2020", int(1.0 * TB), 1_300_000, "[8]"),
    DatasetSpec("ImageNet-1K", 140 * GB, 1_200_000, "[7]"),
    DatasetSpec("FieldSafe", int(0.9 * GB), 2_000, "[9]"),
]

IMAGENET1K = FIG1_DATASETS[7]
IMAGENET21K = FIG1_DATASETS[5]
DEEPCAM = FIG1_DATASETS[1]

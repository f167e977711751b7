"""repro — reproduction of *Why Globally Re-shuffle? Revisiting Data Shuffling
in Large Scale Deep Learning* (Nguyen et al., IPDPS 2022).

Subpackages
-----------
``repro.mpi``
    In-process MPI substrate (threads + mailboxes) standing in for mpi4py.
``repro.data``
    PyTorch-like data pipeline: Dataset / DataLoader / DistributedSampler,
    on-disk folder datasets, synthetic dataset generators, partitioners.
``repro.nn``
    NumPy autograd deep-learning framework: tensors, layers (incl. BatchNorm
    and GroupNorm), losses, SGD optimiser, LR schedules, model zoo.
``repro.shuffle``
    The paper's contribution: global / local / partial-local shuffling, the
    seed-synchronised balanced exchange (Algorithm 1), the overlap scheduler,
    storage-area accounting and the PLS dataset wrapper.
``repro.train``
    Distributed synchronous-SGD training harness over ``repro.mpi``.
``repro.theory``
    Section IV analysis: shuffling error (Eqs. 6-11) and convergence bound
    terms.
``repro.cluster`` / ``repro.perfmodel`` / ``repro.simnet``
    Machine presets (ABCI, Fugaku, TOP500 systems of Fig. 1), the analytic
    epoch-time model behind Figures 7(b), 9 and 10, and a discrete-event
    max-min-fair network simulator for the personalised all-to-all exchange.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

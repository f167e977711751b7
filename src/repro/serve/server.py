"""The shard server: one storage owner serving N concurrent PLS tenants.

A :class:`ShardServer` owns the storage areas (and/or backing datasets —
the "PFS") for any number of named datasets, and serves batched sample
requests submitted by tenants.  The moving parts:

* an async request queue with per-tenant admission control
  (:class:`~repro.serve.tenancy.AdmissionController`: token-bucket
  policing + weighted-fair dequeue);
* a pool of worker threads draining that queue; every fetch walks the
  shared cache hierarchy (hot content-hash cache → cold replica cache →
  storage/PFS read) and answers with a zero-copy
  :class:`~repro.mpi.codec.PackedBatch` envelope packed through the
  server's :class:`~repro.mpi.pool.BufferPool`;
* a fault seam at the server boundary: ``fault_hook(op, key, attempt)``
  runs before every physical read attempt and may raise the injected
  fault (:meth:`repro.faults.ChaosEngine.storage_hook` plugs in
  directly); reads retry under the PR-4
  :class:`~repro.utils.retry.Retrier` discipline;
* observability through the standard surfaces: per-tenant latency
  histograms (quantiles via the public
  :meth:`~repro.obs.metrics.Histogram.quantiles` API), cache hit/miss
  counters, a :class:`~repro.obs.telemetry.FlightRecorder` ring of
  grant/throttle/fault events, and a telemetry-shaped snapshot the
  health checks (:func:`~repro.obs.telemetry.health.detect_tenant_imbalance`)
  consume.

The server is transport-agnostic: in-process tenants call
:meth:`ShardServer.fetch` directly (each call blocks its caller, workers
do the work), and SPMD tenants go through :mod:`repro.serve.wire`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.mpi.codec import PackedBatch, pack_samples
from repro.mpi.pool import BufferPool
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.flight import FlightRecorder
from repro.utils.retry import Retrier, default_retrier

from .cache import ColdReplicaCache, HotSampleCache, content_hash
from .tenancy import AdmissionController, TenantConfig, jain_index

__all__ = [
    "Request",
    "ServeError",
    "ShardServer",
    "TenantUnknownError",
    "ledger_pin",
    "DEFAULT_HOT_BUDGET",
    "DEFAULT_COLD_BUDGET",
]

#: Default cache byte budgets — deliberately small so eviction is a normal
#: event in tests and benches, not an exotic one.  Production deployments
#: size these from the machine spec (see docs/serve.md).
DEFAULT_HOT_BUDGET = 8 << 20
DEFAULT_COLD_BUDGET = 32 << 20

#: How long an idle worker waits on the queue before re-checking shutdown.
_WORKER_POLL_S = 0.05


class ServeError(RuntimeError):
    """A request failed on the server (storage fault past the retry budget,
    unknown dataset/gid, or the server is shut down)."""


class TenantUnknownError(KeyError):
    """Request names a tenant the server has no admission state for."""


def ledger_pin(ledger, live_ranks: Callable[[], set] | set) -> Callable[[str, int], bool]:
    """Build a cold-cache ``pinned`` predicate from a replica ledger.

    An entry is pinned — never evicted — when the ledger tracks its gid
    but no *live* rank holds it hot: the cached replica is then the last
    copy that is not a full PFS round-trip away.  ``live_ranks`` may be a
    set or a zero-arg callable returning one (elastic worlds shrink).
    """

    def pinned(_dataset: str, gid: int) -> bool:
        live = live_ranks() if callable(live_ranks) else live_ranks
        holder = ledger.holder.get(int(gid))
        return holder is not None and holder not in live

    return pinned


@dataclass
class Request:
    """One tenant's batched sample request, tracked through the queue."""

    tenant: str
    dataset: str
    gids: tuple[int, ...]
    submitted_s: float
    #: Filled by the serving worker.
    batch: PackedBatch | None = None
    error: str | None = None
    latency_s: float = 0.0
    _done: threading.Event = field(default_factory=threading.Event, repr=False)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until served (or failed); False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> PackedBatch:
        """The response envelope; raises :class:`ServeError` on failure."""
        if not self.wait(timeout):
            raise ServeError(
                f"request ({self.tenant!r}, {self.dataset!r}, "
                f"{len(self.gids)} gids) timed out"
            )
        if self.error is not None:
            raise ServeError(self.error)
        if self.batch is None:
            raise ServeError("request completed without a batch")
        return self.batch


@dataclass
class _DatasetEntry:
    """One registered dataset: its storage and/or PFS backing."""

    name: str
    storage: object | None        # StorageArea-like (get_by_gid) or None
    backing: object | None        # Dataset-like (indexable by gid) or None
    pinned: Callable[[str, int], bool] | None


class ShardServer:
    """Multi-tenant sample service over shared storage areas.

    Lifecycle::

        server = ShardServer(hot_budget=..., cold_budget=...)
        server.register_dataset("imagenet", storage=area, backing=pfs_ds)
        server.add_tenant(TenantConfig("job-a", rate=500, weight=2.0))
        server.start(workers=2)
        batch = server.fetch("job-a", "imagenet", [3, 17, 29])   # PackedBatch
        ...
        server.stop()

    ``fetch``/``submit`` are thread-safe; any number of tenant threads may
    call them concurrently.
    """

    def __init__(
        self,
        *,
        hot_budget: int = DEFAULT_HOT_BUDGET,
        cold_budget: int = DEFAULT_COLD_BUDGET,
        retrier: Retrier | None = None,
        fault_hook: Callable[[str, str, int], None] | None = None,
        slow_s: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._clock = clock
        self.admission = AdmissionController(clock=clock)
        self.hot = HotSampleCache(hot_budget)
        self.cold = ColdReplicaCache(cold_budget, pinned=self._is_pinned)
        self.pool = BufferPool(name="serve.pool")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.flight = FlightRecorder(rank=0)
        self.retrier = retrier if retrier is not None else default_retrier()
        self.fault_hook = fault_hook
        self.slow_s = slow_s
        self._datasets: dict[str, _DatasetEntry] = {}
        self._hash_of: dict[tuple[str, int], bytes] = {}
        self._hash_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False

    # ----------------------------------------------------------- registration
    def register_dataset(
        self,
        name: str,
        *,
        storage=None,
        backing=None,
        pinned: Callable[[str, int], bool] | None = None,
    ) -> None:
        """Register a dataset the server will serve.

        ``storage`` is a :class:`~repro.shuffle.storage.StorageArea` (or
        anything with ``get_by_gid``); ``backing`` is an indexable
        dataset standing in for the PFS — consulted when the gid is
        neither cached nor in storage.  At least one must be given.
        ``pinned`` guards the cold cache for this dataset's gids (see
        :func:`ledger_pin`).
        """
        if storage is None and backing is None:
            raise ValueError(f"dataset {name!r} needs storage and/or backing")
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} already registered")
        self._datasets[name] = _DatasetEntry(
            name=name, storage=storage, backing=backing, pinned=pinned
        )

    def add_tenant(self, config: TenantConfig) -> None:
        """Register a tenant's admission contract."""
        self.admission.add_tenant(config)

    def datasets(self) -> list[str]:
        """Registered dataset names."""
        return list(self._datasets)

    # -------------------------------------------------------------- lifecycle
    def start(self, workers: int = 2) -> None:
        """Spin up the worker pool (idempotent)."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if self._started:
            return
        self._stop.clear()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()
        self._started = True

    def stop(self) -> None:
        """Drain nothing, stop the workers, fail outstanding requests."""
        if not self._started:
            return
        self._stop.set()
        for t in self._workers:
            t.join()
        self._workers = []
        self._started = False
        # Whatever is still queued will never be served.
        while True:
            item = self.admission.next_item(timeout=0)
            if item is None:
                break
            _tenant, req = item
            req.error = "server stopped before serving this request"
            req._done.set()

    def __enter__(self) -> "ShardServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- submission
    def submit(self, tenant: str, dataset: str, gids: Sequence[int]) -> Request:
        """Enqueue a batched request; returns the future-like Request.

        Raises :class:`TenantUnknownError` / :class:`ServeError` for
        unknown tenant/dataset.  A throttled request (token bucket empty)
        fails fast with a ``throttled`` error — the client decides how to
        back off; :meth:`fetch` retries with the tenant's bucket refill.
        """
        if dataset not in self._datasets:
            raise ServeError(f"unknown dataset {dataset!r}")
        req = Request(
            tenant=tenant,
            dataset=dataset,
            gids=tuple(int(g) for g in gids),
            submitted_s=self._clock(),
        )
        try:
            admitted = self.admission.submit(tenant, req, cost=max(1, len(req.gids)))
        except KeyError:
            raise TenantUnknownError(tenant) from None
        if not admitted:
            self.metrics.counter(f"serve.tenant.{tenant}.throttled").inc()
            self.flight.record("serve.throttle", tenant=tenant, dataset=dataset)
            req.error = f"throttled: tenant {tenant!r} exceeded its request rate"
            req._done.set()
        return req

    def fetch(
        self,
        tenant: str,
        dataset: str,
        gids: Sequence[int],
        *,
        timeout: float | None = 30.0,
        backoff_s: float = 0.002,
    ) -> PackedBatch:
        """Blocking convenience: submit, waiting out throttles, and return
        the response envelope.  The caller owns the returned batch's
        buffer (release/adopt when done with the views)."""
        deadline = None if timeout is None else self._clock() + timeout
        pause = backoff_s
        while True:
            req = self.submit(tenant, dataset, gids)
            if req.error is None or not req.error.startswith("throttled"):
                remaining = None if deadline is None else max(0.0, deadline - self._clock())
                return req.result(remaining)
            if deadline is not None and self._clock() + pause > deadline:
                raise ServeError(req.error)
            time.sleep(pause)
            pause = min(pause * 2, 0.1)

    # ---------------------------------------------------------------- serving
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            item = self.admission.next_item(timeout=_WORKER_POLL_S)
            if item is None:
                continue
            tenant, req = item
            self._serve(tenant, req)

    def _serve(self, tenant: str, req: Request) -> None:
        t0 = self._clock()
        if self.slow_s:
            time.sleep(self.slow_s)
        try:
            triples = []
            for gid in req.gids:
                sample, label = self._load(req.dataset, gid)
                triples.append((sample, label, gid))
            req.batch = pack_samples(triples, pool=self.pool)
        except Exception as exc:  # noqa: BLE001 - forwarded to the tenant
            req.error = f"serve failed: {exc}"
            self.metrics.counter(f"serve.tenant.{tenant}.errors").inc()
            self.flight.record(
                "serve.fault", tenant=tenant, dataset=req.dataset,
                error=str(exc)[:200],
            )
        finally:
            req.latency_s = self._clock() - t0
            wait_s = t0 - req.submitted_s
            self.metrics.histogram(f"serve.tenant.{tenant}.latency_s").observe(
                req.latency_s + wait_s
            )
            self.metrics.histogram(f"serve.tenant.{tenant}.wait_s").observe(wait_s)
            self.metrics.counter(f"serve.tenant.{tenant}.served").inc()
            self.metrics.counter(f"serve.tenant.{tenant}.samples").inc(len(req.gids))
            self.flight.record(
                "serve.grant", tenant=tenant, dataset=req.dataset,
                n=len(req.gids), wait_s=round(wait_s, 6),
            )
            req._done.set()

    def _load(self, dataset: str, gid: int) -> tuple[np.ndarray, int]:
        """One sample through the cache hierarchy (hot → cold → storage)."""
        key = self._hash_of.get((dataset, gid))
        if key is not None:
            entry = self.hot.get(key)
            if entry is not None:
                return entry
        entry = self.cold.get(dataset, gid)
        if entry is not None:
            # Proven warm: promote a reference into the content-hash tier
            # so overlapping tenants share it from now on.
            self._install_hot(dataset, gid, entry[0], entry[1])
            return entry
        sample, label = self._read(dataset, gid)
        self.cold.put(dataset, gid, sample, label)
        self._install_hot(dataset, gid, sample, label)
        return sample, label

    def _install_hot(self, dataset: str, gid: int, sample, label: int) -> None:
        with self._hash_lock:
            key = self._hash_of.get((dataset, gid))
            if key is None:
                key = content_hash(sample, label)
                self._hash_of[(dataset, gid)] = key
        if self.hot.get(key) is None:
            self.hot.put(key, sample, label)

    def _read(self, dataset: str, gid: int) -> tuple[np.ndarray, int]:
        """Physical read: storage area, then PFS backing — fault-injected
        at the server boundary and retried with capped backoff."""
        entry = self._datasets[dataset]
        read_key = f"serve://{dataset}/{gid}"

        def attempt(n: int) -> tuple[np.ndarray, int]:
            if self.fault_hook is not None:
                self.fault_hook("read", read_key, n)
            if entry.storage is not None:
                try:
                    sample, label = entry.storage.get_by_gid(gid)
                    # Copied: the caches keep what is read here, and a view
                    # of the area is valid only while its entry lives.
                    return np.array(sample), label
                except KeyError:
                    if entry.backing is None:
                        raise
            if entry.backing is None:
                raise KeyError(f"gid {gid} not in dataset {dataset!r}")
            try:
                sample, label = entry.backing[gid]
            except IndexError:
                raise KeyError(f"gid {gid} not in dataset {dataset!r}") from None
            return np.asarray(sample), int(label)

        try:
            return self.retrier.call(attempt, key=read_key)
        except KeyError:
            raise ServeError(f"gid {gid} not found in dataset {dataset!r}") from None
        except (OSError, ValueError) as exc:
            self.flight.record(
                "serve.read-failed", dataset=dataset, gid=int(gid),
                error=str(exc)[:200],
            )
            raise ServeError(
                f"read of {dataset}/{gid} failed past the retry budget: {exc}"
            ) from exc

    def _is_pinned(self, dataset: str, gid: int) -> bool:
        entry = self._datasets.get(dataset)
        if entry is None or entry.pinned is None:
            return False
        return entry.pinned(dataset, gid)

    # ---------------------------------------------------------------- reports
    def stats(self) -> dict:
        """Service-level report: per-tenant latency percentiles and
        admission counts, shared-cache accounting, fairness index."""
        counts = self.admission.counts()
        tenants = {}
        for name in counts:
            latency = self.metrics.histogram(f"serve.tenant.{name}.latency_s")
            wait = self.metrics.histogram(f"serve.tenant.{name}.wait_s")
            tenants[name] = {
                **counts[name],
                "samples": self.metrics.counter(f"serve.tenant.{name}.samples").value,
                "errors": self.metrics.counter(f"serve.tenant.{name}.errors").value,
                "latency": latency.quantiles((0.5, 0.95, 0.99)),
                "wait": wait.quantiles((0.5, 0.95, 0.99)),
            }
        served = [t["served"] for t in tenants.values()]
        return {
            "tenants": tenants,
            "fairness": {
                "jain_served": jain_index(served),
                "grants": len(self.admission.grant_log),
            },
            "caches": {
                "hot": {**self.hot.stats.to_dict(), "nbytes": self.hot.nbytes,
                        "budget_bytes": self.hot.budget_bytes},
                "cold": {**self.cold.stats.to_dict(), "nbytes": self.cold.nbytes,
                         "budget_bytes": self.cold.budget_bytes,
                         "pinned_overflow": self.cold.pinned_overflow()},
            },
            "pool": self.pool.stats(),
        }

    def telemetry_snapshot(self) -> dict:
        """A telemetry-shaped snapshot (``series`` keyed by tenant index)
        the health detectors consume — tenant *indices* stand in for ranks
        so :func:`~repro.obs.telemetry.health.detect_tenant_imbalance`
        reads it exactly like a per-rank snapshot."""
        names = self.admission.tenant_names()
        counts = self.admission.counts()
        series: dict[str, dict[str, list]] = {
            "serve.tenant.served": {}, "serve.tenant.throttled": {},
            "serve.tenant.weight": {}, "serve.tenant.wait_p99_s": {},
        }
        for idx, name in enumerate(names):
            c = counts[name]
            wait = self.metrics.histogram(f"serve.tenant.{name}.wait_s")
            series["serve.tenant.served"][str(idx)] = [[0, c["served"]]]
            series["serve.tenant.throttled"][str(idx)] = [[0, c["throttled"]]]
            series["serve.tenant.weight"][str(idx)] = [
                [0, self.admission.tenant(name).config.weight]
            ]
            series["serve.tenant.wait_p99_s"][str(idx)] = [
                [0, wait.quantiles((0.99,))["p99"]]
            ]
        return {
            "schema": "repro.obs.telemetry/v1",
            "pushes": len(names),
            "ranks": list(range(len(names))),
            "tenant_names": names,
            "series": series,
        }

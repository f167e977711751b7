"""Concurrent-access audit: StorageArea under thread contention.

A StorageArea may be shared between threads, so
add_many/demote/promote/get/remove must hold their invariants under
interleaving — byte accounting, sid<->gid inverse maps, hot/cold
disjointness, and the capacity bound.  These tests hammer the area from
several threads and then call ``audit()``, which re-derives every
invariant under the lock and raises on drift.
"""

import threading

import numpy as np
import pytest

from repro.shuffle.storage import StorageArea, StorageFullError


def _sample(gid, nbytes=32):
    return np.full(nbytes, gid % 251, dtype=np.uint8)


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestAuditInvariant:
    def test_audit_clean_area(self):
        area = StorageArea(capacity_bytes=1024)
        area.add(_sample(1), 0, gid=1)
        report = area.audit()
        assert report == {
            "hot_nbytes": 32, "cold_nbytes": 0, "entries": 1, "cold": 0,
            "allocated": 0, "free": 0, "staged": 0, "live": 0, "chunks": 0,
        }

    def test_audit_detects_byte_drift(self):
        area = StorageArea()
        area.add(_sample(1), 0, gid=1)
        area._nbytes += 7  # corrupt on purpose
        with pytest.raises(RuntimeError, match="drifted"):
            area.audit()

    def test_audit_detects_map_divergence(self):
        area = StorageArea()
        sid = area.add(_sample(1), 0, gid=1)
        area._sid_of[99] = sid  # dangling inverse entry
        with pytest.raises(RuntimeError, match="maps disagree"):
            area.audit()


class TestConcurrentHammer:
    def test_add_many_demote_promote_from_threads(self):
        """Several threads adding, demoting and
        promoting disjoint gid ranges against one shared area."""
        area = StorageArea(capacity_bytes=512 * 1024)
        n_threads, per_thread = 4, 60
        errors = []

        def worker(tid):
            base = tid * 1000
            try:
                sids = area.add_many(
                    (_sample(base + i), i, base + i) for i in range(per_thread)
                )
                for sid in sids[::2]:
                    area.demote(sid)
                for gid in range(base, base + per_thread, 2):
                    area.promote(gid)
                for gid in range(base, base + per_thread, 3):
                    sid = area.sid_of(gid)
                    if sid is not None:
                        area.get(sid)
                        area.demote(sid)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        _run_threads([lambda t=t: worker(t) for t in range(n_threads)])
        assert errors == []
        report = area.audit()
        # Every gid is somewhere (hot or cold), none duplicated.
        assert report["entries"] + report["cold"] == n_threads * per_thread

    def test_interleaved_add_remove_keeps_accounting(self):
        area = StorageArea()
        stop = threading.Event()
        errors = []

        def churner(tid):
            base = tid * 10_000
            try:
                for i in range(150):
                    sid = area.add(_sample(i), i, gid=base + i)
                    if i % 2:
                        area.remove(sid)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                stop.set()

        def auditor():
            # Audit concurrently with the churn: every intermediate state
            # observed under the lock must satisfy the invariants too.
            while not stop.is_set():
                area.audit()

        _run_threads([lambda: churner(0), lambda: churner(1), auditor])
        assert errors == []
        assert area.audit()["entries"] == 150

    def test_capacity_bound_never_exceeded_under_contention(self):
        capacity = 64 * 32  # room for 64 of the 32 B samples
        area = StorageArea(capacity_bytes=capacity)
        overflows = []

        def filler(tid):
            for i in range(50):
                gid = tid * 100 + i
                try:
                    sid = area.add(_sample(gid), 0, gid=gid)
                    if i % 3 == 0:
                        area.demote(sid)
                except StorageFullError:
                    overflows.append(gid)

        _run_threads([lambda t=t: filler(t) for t in range(3)])
        report = area.audit()  # audit itself asserts the capacity bound
        assert report["hot_nbytes"] + report["cold_nbytes"] <= capacity
        # 150 adds against a 64-slot budget must have overflowed.
        assert overflows

    def test_items_iteration_safe_against_mutation(self):
        area = StorageArea()
        sids = area.add_many((_sample(i), i, i) for i in range(100))
        errors = []

        def reader():
            try:
                for _ in range(20):
                    for _sid, sample, _label in area.items():
                        assert sample.nbytes == 32
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def mutator():
            for sid in sids[:50]:
                area.demote(sid)
            for gid in range(50):
                area.promote(gid)

        _run_threads([reader, mutator, reader])
        assert errors == []
        area.audit()

"""The interprocedural rules SPMD006-SPMD009: a positive, a negative and a
``# repro: noqa`` suppression case per rule, plus the summary substrate.

The fixtures lint synthetic sources under ``src/repro/...`` paths — the
dataflow rules skip test files, so the path must look like library code.
"""

import textwrap

from repro.analysis import lint_source
from repro.analysis.summaries import ModuleSummary, module_name_for
from repro.mpi.tags import EXCHANGE_DATA, PARITY_BIT, RECOVERY

import ast


def _lint(src: str, path: str = "src/repro/pkg/mod.py", **kw):
    findings, suppressed = lint_source(textwrap.dedent(src), path=path, **kw)
    return findings, suppressed


def rule_ids(src: str, path: str = "src/repro/pkg/mod.py", **kw):
    findings, _ = _lint(src, path, **kw)
    return [f.rule_id for f in findings]


class TestTagCollision:
    def test_unregistered_literal_tag_flagged(self):
        src = """
        def f(comm, x):
            comm.send(x, dest=1, tag=12345678)
        """
        findings, _ = _lint(src, "src/repro/shuffle/mod.py")
        assert [f.rule_id for f in findings] == ["SPMD006"]
        assert "12345678" in findings[0].message

    def test_cross_subsystem_send_flagged(self):
        src = """
        from repro.mpi.tags import RECOVERY

        def f(comm, x):
            comm.send(x, dest=1, tag=RECOVERY.tag(3))
        """
        findings, _ = _lint(src, "src/repro/shuffle/mod.py")
        assert [f.rule_id for f in findings] == ["SPMD006"]
        assert "repro.elastic" in findings[0].message

    def test_owner_module_is_clean(self):
        src = """
        from repro.mpi.tags import RECOVERY

        def f(comm, x):
            comm.send(x, dest=1, tag=RECOVERY.tag(3))
        """
        assert rule_ids(src, "src/repro/elastic/mod.py") == []

    def test_folded_constant_arithmetic_resolves(self):
        # Module constants mirroring the registry fold to a registered tag.
        src = f"""
        _BASE = {RECOVERY.base}

        def f(comm, x, step):
            comm.send(x, dest=1, tag=_BASE + step)
        """
        assert rule_ids(src, "src/repro/elastic/mod.py") == []

    def test_local_tag_variable_resolves(self):
        src = """
        from repro.mpi.tags import EXCHANGE_DATA, PARITY_BIT

        def f(comm, x, i, parity):
            tag = EXCHANGE_DATA.tag(i, parity=parity)
            comm.send(x, dest=1, tag=tag)
        """
        assert rule_ids(src, "src/repro/shuffle/mod.py") == []

    def test_recv_on_foreign_range_is_not_ownership_violation(self):
        # Receiving from another subsystem's range is how cross-subsystem
        # messages are consumed; only *sends* claim the range.
        src = """
        from repro.mpi.tags import RECOVERY

        def f(comm):
            return comm.recv(source=0, tag=RECOVERY.tag(0))
        """
        assert rule_ids(src, "src/repro/shuffle/mod.py") == []

    def test_dynamic_tag_skipped(self):
        src = """
        def f(comm, x, st):
            comm.send(x, dest=1, tag=st.tag)
        """
        assert rule_ids(src, "src/repro/shuffle/mod.py") == []

    def test_non_repro_path_skipped(self):
        src = """
        def f(comm, x):
            comm.send(x, dest=1, tag=12345678)
        """
        assert rule_ids(src, "scripts/tool.py") == []

    def test_noqa_suppresses(self):
        src = """
        def f(comm, x):
            comm.send(x, dest=1, tag=12345678)  # repro: noqa[SPMD006]
        """
        findings, suppressed = _lint(src, "src/repro/shuffle/mod.py")
        assert findings == []
        assert suppressed == 1


class TestCollectiveOrderDivergence:
    def test_reordered_collectives_flagged(self):
        src = """
        def f(comm, flag, x):
            if flag:
                comm.allreduce(x)
                comm.barrier()
            else:
                comm.barrier()
                comm.allreduce(x)
        """
        findings, _ = _lint(src)
        assert [f.rule_id for f in findings] == ["SPMD007"]
        assert "allreduce" in findings[0].message

    def test_divergence_through_local_helper_flagged(self):
        src = """
        def sync(comm, x):
            comm.allreduce(x)

        def f(comm, flag, x):
            if flag:
                sync(comm, x)
                comm.barrier()
            else:
                comm.barrier()
                sync(comm, x)
        """
        assert rule_ids(src) == ["SPMD007"]

    def test_matching_branches_clean(self):
        src = """
        def f(comm, flag, x):
            if flag:
                y = comm.allreduce(x)
            else:
                y = comm.allreduce(x * 2)
            return y
        """
        assert rule_ids(src) == []

    def test_one_sided_branch_not_reported_here(self):
        # A collective in only one branch is SPMD001's business (and only
        # when the condition is rank-dependent); SPMD007 stays quiet.
        src = """
        def f(comm, flag, x):
            if flag:
                comm.allreduce(x)
            else:
                x = x * 2
            return x
        """
        assert rule_ids(src) == []

    def test_split_communicator_idiom_clean(self):
        # The hierarchical-exchange shape: leaders do an extra collective
        # on their *own* sub-communicator; the shared communicator sees
        # the same sequence in both branches.
        src = """
        def f(intra, leaders, is_leader, x):
            if is_leader:
                pooled = leaders.alltoall(x)
                r = intra.scatter(pooled, root=0)
            else:
                r = intra.scatter(None, root=0)
            return r
        """
        assert rule_ids(src) == []

    def test_same_comm_divergence_via_distinct_receivers(self):
        src = """
        def f(comm, flag, x):
            if flag:
                comm.bcast(x)
            else:
                comm.allreduce(x)
        """
        assert rule_ids(src) == ["SPMD007"]

    def test_noqa_suppresses(self):
        src = """
        def f(comm, flag, x):
            if flag:  # repro: noqa[SPMD007]
                comm.bcast(x)
            else:
                comm.allreduce(x)
        """
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1


class TestUnreleasedPoolBuffer:
    def test_early_return_while_held_flagged(self):
        src = """
        def f(pool, n, bad):
            buf = pool.acquire(n)
            if bad:
                return None
            buf.release()
        """
        findings, _ = _lint(src)
        assert [f.rule_id for f in findings] == ["SPMD008"]
        assert "buf" in findings[0].message

    def test_raise_while_held_flagged(self):
        src = """
        def f(pool, n, bad):
            buf = pool.acquire(n)
            if bad:
                raise ValueError("nope")
            buf.release()
        """
        assert rule_ids(src) == ["SPMD008"]

    def test_fall_off_end_flagged(self):
        src = """
        def f(pool, n):
            buf = pool.acquire(n)
            buf.raw[0] = 1
        """
        assert rule_ids(src) == ["SPMD008"]

    def test_validate_before_acquire_clean(self):
        # The pack_samples shape: raise all you like *before* acquiring.
        src = """
        def f(pool, n):
            if n <= 0:
                raise ValueError("empty")
            buf = pool.acquire(n)
            buf.release()
        """
        assert rule_ids(src) == []

    def test_escape_via_return_clean(self):
        src = """
        def f(pool, n):
            buf = pool.acquire(n)
            return wrap(buf)
        """
        assert rule_ids(src) == []

    def test_escape_via_container_store_clean(self):
        # A collate-style owner: ownership moves to self._bufs.
        src = """
        def f(self, key):
            buf = self.pool.acquire(64)
            self._bufs[key] = buf
        """
        assert rule_ids(src) == []

    def test_adopt_and_try_adopt_retire(self):
        src = """
        def f(pool, n):
            buf = pool.acquire(n)
            buf.adopt()

        def g(pool, n):
            buf = pool.acquire(n)
            buf.try_adopt()
        """
        assert rule_ids(src) == []

    def test_pack_samples_acquires_ownership(self):
        src = """
        def f(samples, pool, bad):
            batch = pack_samples(samples, pool=pool)
            if bad:
                return None
            batch.release()
        """
        assert rule_ids(src) == ["SPMD008"]

    def test_noqa_suppresses(self):
        src = """
        def f(pool, n, bad):
            buf = pool.acquire(n)
            if bad:
                return None  # repro: noqa[SPMD008]
            buf.release()
        """
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1


class TestUnboundedBlockingRecv:
    def test_bare_recv_on_fault_path_flagged(self):
        src = """
        from repro.mpi.errors import PeerFailure

        def f(comm):
            if comm.dead_peers():
                raise PeerFailure(1)
            return comm.recv(source=1)
        """
        findings, _ = _lint(src)
        assert [f.rule_id for f in findings] == ["SPMD009"]
        assert "recv" in findings[0].message

    def test_fault_path_is_transitive(self):
        src = """
        def check(comm, PeerFailure):
            if comm.dead_peers():
                raise PeerFailure(1)

        def f(comm, PeerFailure):
            check(comm, PeerFailure)
            return comm.recv(source=1)
        """
        assert rule_ids(src) == ["SPMD009"]

    def test_iprobe_guarded_recv_clean(self):
        # The scheduler's drain idiom: poll iprobe (checking peers in the
        # loop body), then take the message with a bounded recv.
        src = """
        def f(comm, PeerFailure):
            while not comm.iprobe(source=1):
                if comm.dead_peers():
                    raise PeerFailure(1)
            return comm.recv(source=1, timeout=0.0)
        """
        assert rule_ids(src) == []

    def test_recv_inside_iprobe_guarded_loop_clean(self):
        src = """
        def f(comm, PeerFailure, out):
            if comm.dead_peers():
                raise PeerFailure(1)
            while comm.iprobe(source=1):
                out.append(comm.recv(source=1))
        """
        assert rule_ids(src) == []

    def test_timeout_kwarg_clean(self):
        src = """
        def f(comm, PeerFailure):
            comm.dead_peers()
            return comm.recv(source=1, timeout=5.0)
        """
        assert rule_ids(src) == []

    def test_non_fault_module_exempt(self):
        src = """
        def f(comm):
            return comm.recv(source=1)
        """
        assert rule_ids(src) == []

    def test_irecv_is_not_blocking(self):
        src = """
        def f(comm, PeerFailure):
            comm.dead_peers()
            req = comm.irecv(source=1)
            return req.wait()
        """
        # SPMD002 would fire if the request leaked; it doesn't, and
        # SPMD009 must not treat irecv as blocking.
        assert rule_ids(src) == []

    def test_noqa_suppresses(self):
        src = """
        def f(comm, PeerFailure):
            comm.dead_peers()
            return comm.recv(source=1)  # repro: noqa[SPMD009]
        """
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1


class TestSummaries:
    def test_module_name_for(self):
        assert module_name_for("src/repro/mpi/world.py") == "repro.mpi.world"
        assert module_name_for("src/repro/mpi/__init__.py") == "repro.mpi"
        assert module_name_for("scripts/tool.py") is None

    def _summary(self, src: str, path: str = "src/repro/pkg/mod.py"):
        tree = ast.parse(textwrap.dedent(src))
        return ModuleSummary(tree, path)

    def test_registry_imports_resolve_to_live_objects(self):
        mod = self._summary(
            """
            from repro.mpi.tags import EXCHANGE_DATA, PARITY_BIT
            """
        )
        assert mod.constants["EXCHANGE_DATA"] is EXCHANGE_DATA
        assert mod.constants["PARITY_BIT"] == PARITY_BIT

    def test_constant_folding_over_module_names(self):
        mod = self._summary(
            """
            A = 1 << 14
            B = A + 4096
            C = B * 2 - A
            """
        )
        assert mod.constants["C"] == ((1 << 14) + 4096) * 2 - (1 << 14)

    def test_tag_call_folds_exactly_when_static(self):
        mod = self._summary(
            """
            from repro.mpi.tags import RECOVERY

            def f(comm, x):
                comm.send(x, dest=1, tag=RECOVERY.tag(3))
            """
        )
        ev = mod.functions["f"].comm_events[0]
        assert ev.tag == RECOVERY.tag(3)

    def test_tag_call_keeps_range_when_dynamic(self):
        mod = self._summary(
            """
            from repro.mpi.tags import EXCHANGE_DATA

            def f(comm, x, i):
                comm.send(x, dest=1, tag=EXCHANGE_DATA.tag(i))
            """
        )
        ev = mod.functions["f"].comm_events[0]
        assert ev.tag is None
        assert ev.tag_range is EXCHANGE_DATA

    def test_additive_spine_resolves_base_range(self):
        mod = self._summary(
            f"""
            _BASE = {RECOVERY.base}

            def f(comm, x, size, step):
                comm.send(x, dest=1, tag=_BASE + size + step)
            """
        )
        ev = mod.functions["f"].comm_events[0]
        assert ev.tag is None
        assert ev.tag_range is RECOVERY

    def test_collective_sequence_splices_methods(self):
        mod = self._summary(
            """
            class Exchanger:
                def _sync(self, x):
                    self.comm.allreduce(x)

                def run(self, x):
                    self.comm.barrier()
                    self._sync(x)
            """
        )
        assert mod.collective_sequence("Exchanger.run") == (
            ("barrier", "self.comm"),
            ("allreduce", "self.comm"),
        )

    def test_recursion_terminates(self):
        mod = self._summary(
            """
            def a(comm):
                comm.barrier()
                b(comm)

            def b(comm):
                a(comm)
            """
        )
        assert mod.collective_sequence("a") == (("barrier", "comm"),)
        assert mod.is_fault_path("a") is False

"""FaultProfile grammar: parse, round-trip, validation."""

import pytest

from repro.elastic import FailureEvent
from repro.faults import FaultClause, FaultProfile


class TestParse:
    def test_empty_is_no_faults(self):
        prof = FaultProfile.parse("")
        assert prof.clauses == ()
        assert not prof.has_message_faults
        assert not prof.has_storage_faults

    def test_single_clause(self):
        prof = FaultProfile.parse("corrupt:p=0.01")
        (c,) = prof.clauses
        assert c.kind == "corrupt"
        assert c.p == pytest.approx(0.01)
        assert c.scope == "exchange"  # pinned to the data plane

    def test_multi_clause_order_preserved(self):
        prof = FaultProfile.parse(
            "corrupt:p=0.01;drop:p=0.02;flaky-read:p=0.05;slow:rank=3,x=10"
        )
        assert [c.kind for c in prof.clauses] == [
            "corrupt", "drop", "flaky-read", "slow",
        ]
        assert prof.has_message_faults
        assert prof.has_storage_faults

    def test_epoch_window(self):
        (c,) = FaultProfile.parse("delay:p=0.5,ms=5,epochs=1-3").clauses
        assert c.epochs == (1, 3)
        assert not c.active(0)
        assert c.active(1) and c.active(3)
        assert not c.active(4)

    def test_single_epoch_window(self):
        (c,) = FaultProfile.parse("dup:p=0.1,epochs=2").clauses
        assert c.epochs == (2, 2)

    def test_slow_defaults(self):
        (c,) = FaultProfile.parse("slow:rank=2").clauses
        assert c.rank == 2
        assert c.x == pytest.approx(10.0)

    def test_delay_default_ms(self):
        (c,) = FaultProfile.parse("delay:p=0.5").clauses
        assert c.ms == pytest.approx(20.0)

    def test_whitespace_tolerated(self):
        prof = FaultProfile.parse(" corrupt:p=0.1 ; drop:p=0.2 ")
        assert [c.kind for c in prof.clauses] == ["corrupt", "drop"]


class TestKill:
    def test_kill_becomes_failure_plan(self):
        prof = FaultProfile.parse("kill:rank=1,epoch=2,point=mid_exchange")
        plan = prof.failure_plan()
        assert plan.events == (FailureEvent(1, 2, "mid_exchange"),)

    def test_transient_strips_kill(self):
        prof = FaultProfile.parse("corrupt:p=0.1;kill:rank=1,epoch=2")
        assert [c.kind for c in prof.transient().clauses] == ["corrupt"]
        # kill alone is neither a message nor a storage fault
        assert not FaultProfile.parse("kill:rank=0,epoch=0").has_message_faults

    def test_kill_requires_rank_and_epoch(self):
        with pytest.raises(ValueError):
            FaultProfile.parse("kill:rank=1")
        with pytest.raises(ValueError):
            FaultProfile.parse("kill:epoch=1")


class TestErrors:
    @pytest.mark.parametrize(
        "spec",
        [
            "frobnicate:p=0.1",          # unknown kind
            "corrupt",                   # missing p
            "corrupt:p=0",               # p out of (0, 1]
            "corrupt:p=1.5",
            "corrupt:ms=5",              # parameter not valid for kind
            "corrupt:p=oops",            # unparsable value
            "slow:x=10",                 # slow without rank
            "flaky-read:p=0.1@exchange", # storage kinds take no scope
            "delay:p=0.1@nowhere",       # unknown scope
            "corrupt:p=0.1,epochs=3-1",  # inverted window
        ],
    )
    def test_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultProfile.parse(spec)

    def test_corrupt_control_scope_rejected(self):
        # The ACK/NACK control plane is modeled reliable: losing or damaging
        # it would void the resend protocol's termination guarantee.
        with pytest.raises(ValueError, match="data-plane only"):
            FaultProfile.parse("corrupt:p=0.1@control")
        with pytest.raises(ValueError, match="data-plane only"):
            FaultProfile.parse("drop:p=0.1@all")


class TestClause:
    def test_frozen(self):
        c = FaultClause(kind="corrupt", p=0.1, scope="exchange")
        with pytest.raises(AttributeError):
            c.p = 0.2

"""ChaosEngine unit behavior: determinism, copy safety, scoping."""

import numpy as np
import pytest

from repro.faults import ChaosEngine
from repro.mpi import BufferPool, SampleBlock, pack_samples, unpack_samples
from repro.mpi.message import Checksummed, Message


def frame(value=1.0, n=1):
    """A frame of ``n`` four-float samples, as the exchange packs one."""
    rows = np.full((n, 4), value, dtype=np.float32)
    return pack_samples(
        SampleBlock(rows, np.zeros(n, np.int64), np.full(n, 7, np.int64)),
        pool=BufferPool(name="t"),
    )


def data_msg(source=0, dest=1, tag=100, epoch=0, rnd=0, attempt=0, value=1.0):
    return Message(
        source=source, dest=dest, tag=tag,
        payload=Checksummed.wrap(frame(value), meta=(epoch, rnd, attempt)),
    )


def ctrl_msg(source=0, dest=1, tag=200):
    return Message(source=source, dest=dest, tag=tag, payload=("ack", 0, 0))


class TestDeterminism:
    def test_same_seed_same_plan(self):
        decisions = []
        for _ in range(2):
            eng = ChaosEngine("corrupt:p=0.3;drop:p=0.3", seed=42)
            plan = [
                len(eng.plan_message(data_msg(rnd=r, tag=100 + r)))
                for r in range(50)
            ]
            decisions.append((plan, eng.snapshot()))
        assert decisions[0] == decisions[1]
        counts = decisions[0][1]
        assert counts.get("drop", 0) > 0
        assert counts.get("corrupt", 0) > 0

    def test_different_seed_different_plan(self):
        def plan(seed):
            eng = ChaosEngine("drop:p=0.3", seed=seed)
            return [
                len(eng.plan_message(data_msg(rnd=r, tag=100 + r)))
                for r in range(50)
            ]

        assert plan(1) != plan(2)

    def test_resend_gets_independent_draw(self):
        # Find a message the engine drops at attempt 0, then show the resend
        # (attempt+1, fresh identity) can get through: p < 1 cannot black-hole
        # a round forever.
        eng = ChaosEngine("drop:p=0.5", seed=7)
        for r in range(50):
            if not eng.plan_message(data_msg(rnd=r, tag=100 + r)):
                resent = eng.plan_message(data_msg(rnd=r, tag=100 + r, attempt=1))
                if resent:
                    return
        pytest.fail("no dropped-then-resent message found in 50 draws")


class TestCorruptSafety:
    def test_corrupt_never_mutates_original(self):
        eng = ChaosEngine("corrupt:p=1.0", seed=0)
        msg = data_msg()
        sent = msg.payload.payload
        original = bytes(sent.payload)
        (_, out), = eng.plan_message(msg)
        # Sender's buffer (the resend source) is untouched...
        assert bytes(sent.payload) == original
        assert unpack_samples(sent).samples.tolist() == [[1.0] * 4]
        # ...while the delivered copy is damaged but keeps the original crc,
        # so the receiver's verification fails and triggers a NACK.
        damaged = out.payload.payload
        assert damaged.header == sent.header
        assert bytes(damaged.payload) != original
        assert damaged.buf is not sent.buf
        assert out.payload.crc == msg.payload.crc
        assert not out.payload.ok()

    def test_an_empty_frame_is_damaged_in_its_header(self):
        eng = ChaosEngine("corrupt:p=1.0", seed=0)
        sent = frame(n=0)
        msg = Message(0, 1, 100, Checksummed.wrap(sent, meta=(0, 0, 0)))
        (_, out), = eng.plan_message(msg)
        assert out.payload.payload.header != sent.header
        assert not out.payload.ok()


class TestScoping:
    def test_corrupt_only_hits_data_plane(self):
        eng = ChaosEngine("corrupt:p=1.0;drop:p=1.0", seed=0)
        (_, out), = eng.plan_message(ctrl_msg())
        assert out.payload == ("ack", 0, 0)
        assert eng.snapshot() == {}

    def test_epoch_window_gating(self):
        eng = ChaosEngine("drop:p=1.0,epochs=2", seed=0)
        eng.note_epoch(0, 0)
        assert eng.plan_message(data_msg(epoch=0))  # delivered
        eng.note_epoch(0, 2)
        assert eng.plan_message(data_msg(epoch=2)) == []  # dropped

    def test_dup_appends_second_delivery(self):
        eng = ChaosEngine("dup:p=1.0", seed=0)
        deliveries = eng.plan_message(data_msg())
        assert len(deliveries) == 2
        assert deliveries[0][0] == 0.0

    def test_delay_sets_positive_delay(self):
        eng = ChaosEngine("delay:p=1.0,ms=30", seed=0)
        (delay_s, _), = eng.plan_message(data_msg())
        assert delay_s == pytest.approx(0.030)


class TestStorageHook:
    def test_deterministic_per_key_and_attempt(self):
        eng = ChaosEngine("flaky-read:p=0.5", seed=9)
        outcomes = []
        for key in map(str, range(40)):
            try:
                eng.storage_hook("read", key, 0)
                outcomes.append(True)
            except OSError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)
        eng2 = ChaosEngine("flaky-read:p=0.5", seed=9)
        for key, ok in zip(map(str, range(40)), outcomes):
            if ok:
                eng2.storage_hook("read", key, 0)
            else:
                with pytest.raises(OSError):
                    eng2.storage_hook("read", key, 0)

    def test_torn_read_raises_value_error(self):
        eng = ChaosEngine("torn-read:p=1.0", seed=0)
        with pytest.raises(ValueError):
            eng.storage_hook("read", "x", 0)

    def test_retry_eventually_clears(self):
        # Attempt number is part of the draw: for p < 1 some attempt succeeds.
        eng = ChaosEngine("flaky-read:p=0.5", seed=3)
        for attempt in range(20):
            try:
                eng.storage_hook("read", "stuck", attempt)
                return
            except OSError:
                continue
        pytest.fail("20 consecutive injected failures at p=0.5")

"""Span recorder, wrappers and the self-time arithmetic."""

import threading

from harness import layers
from harness.spans import Patcher, Recorder, current, self_times, set_current


def test_self_time_is_duration_minus_direct_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [10 - 3 - 4, 3 - 1, 1, 4]


def test_self_times_sum_to_root_duration():
    start = [0.0, 0.5, 1.0, 6.0, 6.5]
    end = [9.0, 5.0, 2.0, 8.0, 7.0]
    parent = [-1, 0, 1, 0, 3]
    assert abs(sum(self_times(start, end, parent)) - 9.0) < 1e-12


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


class _Child(_Layer):
    pass


def test_wrappers_record_nesting_and_leaves_hide_inner_calls():
    p = Patcher()
    rec = Recorder()
    p.install(_Layer, "outer", "x.outer", leaf=False)
    p.install(_Layer, "inner", "x.inner")
    set_current(rec)
    try:
        assert _Layer().outer() == 2
    finally:
        set_current(None)
        p.remove_all()
    t = rec.table()
    assert [t["names"][i] for i in t["name"]] == ["x.outer", "x.inner"]
    assert t["parent"] == [-1, 0]
    assert t["start"][0] <= t["start"][1] <= t["end"][1] <= t["end"][0]

    # The same calls under a leaf outer span: the inner call is not recorded.
    rec2 = Recorder()
    p.install(_Layer, "outer", "x.outer", leaf=True)
    p.install(_Layer, "inner", "x.inner")
    set_current(rec2)
    try:
        _Layer().outer()
    finally:
        set_current(None)
        p.remove_all()
    assert len(rec2) == 1


def test_wrapper_without_recorder_is_a_pass_through():
    p = Patcher()
    p.install(_Layer, "inner", "x.inner")
    try:
        assert current() is None
        assert _Layer().inner() == 1
        seen = []
        worker = threading.Thread(target=lambda: seen.append(current()))
        worker.start()
        worker.join(timeout=5)
        assert seen == [None]  # a recorder is bound per thread
    finally:
        p.remove_all()


def test_patcher_restores_functions_classmethods_and_inherited_attributes():
    before = {k: vars(_Layer)[k] for k in ("outer", "inner", "make")}
    p = Patcher()
    p.install(_Layer, "outer", "x.outer")
    p.install(_Layer, "outer", "x.again")  # idempotent per (owner, attr)
    p.install(_Layer, "make", "x.make")
    p.install(_Child, "inner", "x.child_inner")  # only inherited by _Child
    assert p.installed() == 3
    assert isinstance(_Layer.make(), _Layer)
    assert "inner" in vars(_Child)
    p.remove_all()
    assert p.installed() == 0
    assert {k: vars(_Layer)[k] for k in before} == before
    assert "inner" not in vars(_Child)


def test_aggregate_splits_regions_and_counts_unattributed_time():
    rec = Recorder()

    def span(name, parent, start, end):
        rec.name.append(rec.name_id(name))
        rec.parent.append(parent)
        rec.start.append(float(start))
        rec.end.append(float(end))
        return len(rec.name) - 1

    span("shuffle.setup", -1, 0, 1)
    e0 = span("train.epoch", -1, 1, 11)
    s0 = span("train.step", e0, 1, 10)
    span("nn.fw", s0, 2, 6)
    e1 = span("train.epoch", -1, 11, 31)
    s1 = span("train.step", e1, 12, 30)
    span("nn.fw", s1, 13, 20)
    span("shuffle.sync", e1, 30, 31)
    agg = layers.aggregate(rec.table())
    assert agg["epoch_walls"] == [10.0, 20.0]
    assert agg["steps"] == [18.0]  # steady steps only
    assert agg["regions"]["setup"] == {"shuffle.setup|": [1, 1.0, 1.0]}
    assert agg["regions"]["epoch0"] == {"nn.fw|train.step": [1, 4.0, 4.0]}
    assert agg["regions"]["steady"]["nn.fw|train.step"] == [1, 7.0, 7.0]
    # epoch 1: wall 20 = fw 7 + sync 1 + unattributed 12
    assert agg["unattributed"] == [12.0]

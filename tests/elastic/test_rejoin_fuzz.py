"""Fuzz the shrink -> rejoin -> shrink state machine at the planner level.

No SPMD worlds here: the ledger and the membership-change planner are
pure functions of replicated state, so a single-process model can drive
random kill/rejoin sequences through the one planner (a kill and a rejoin
apply its moves alike) and check the invariants the live system depends
on after *every* step:

* every gid has exactly one live hot holder, and it is the ledger's;
* hot counts hit ``rebalance_targets`` exactly, also where ``N mod M``
  is not 0;
* a lost gid is re-read from the source dataset, any other moves from its
  one live holder;
* the whole trajectory is a deterministic function of the seed.
"""

import random

import pytest

from repro.elastic import ReplicaLedger
from repro.elastic.migration import READ, TRANSFER, plan_moves, rebalance_targets

N = 96
#: Both sizes run every trajectory: 97 divides by none of 2, 3 or 4.
SIZES = (N, 97)
M = 4


class PlannerModel:
    """Replicated-state model: ledger + per-rank hot orders."""

    def __init__(self, n=N, m=M):
        self.n, self.m = n, m
        self.live = list(range(m))
        self.dead = []
        self.ledger = ReplicaLedger()
        self.hot = {r: [] for r in range(m)}
        for gid in range(n):
            r = gid % m
            self.ledger.holder[gid] = r
            self.hot[r].append(gid)

    def kill(self, rank):
        """Fail-stop: the rank's copies are gone; the planner re-homes its
        gids (the ledger still names it)."""
        self.live.remove(rank)
        self.dead.append(rank)
        self.hot.pop(rank)
        return self._apply()

    def rejoin(self, rank):
        """Heal: admit ``rank`` back, empty, and apply the planner's moves."""
        self.dead.remove(rank)
        self.live.append(rank)
        self.live.sort()
        self.hot[rank] = []
        return self._apply()

    def plan(self):
        """The one planner's moves for the current picture."""
        lost = self.ledger.lost_to(self.dead)
        return plan_moves(len(self.ledger), self.live, self.hot, lost)

    def _apply(self):
        plan = self.plan()
        lost = set(self.ledger.lost_to(self.dead))
        # As the executor does: received transfers install first, then
        # reads, each in plan order; a source gives its copy up.
        for gid, src, dst, how in sorted(plan, key=lambda m: m[3] != TRANSFER):
            if gid in lost:
                assert (src, how) == (None, READ), (gid, src, how)
            else:
                assert how == TRANSFER and src == self.ledger.holder[gid], (gid, src)
                self.hot[src].remove(gid)
            self.hot[dst].append(gid)
            self.ledger.reassign(gid, dst)
        return plan

    # ------------------------------------------------------------- invariants
    def check(self):
        held = {}
        for r in self.live:
            for gid in self.hot[r]:
                assert gid not in held, (
                    f"gid {gid} hot on both {held[gid]} and {r}"
                )
                held[gid] = r
        assert len(held) == self.n, "some gid lost all hot copies"
        for gid, r in held.items():
            assert self.ledger.holder[gid] == r, (
                f"ledger says {self.ledger.holder[gid]} holds {gid}, "
                f"actual holder {r}"
            )
        assert self.ledger.missing_from(self.live) == []

    def signature(self):
        return (
            tuple(self.live),
            tuple((r, tuple(self.hot[r])) for r in sorted(self.hot)),
            tuple(sorted(self.ledger.holder.items())),
        )


def drive(seed, n=N, steps=12):
    """One random kill/rejoin trajectory; returns the visited signatures."""
    rng = random.Random(seed)
    model = PlannerModel(n=n)
    model.check()
    sigs = [model.signature()]
    for _ in range(steps):
        can_kill = len(model.live) > 2
        can_rejoin = bool(model.dead)
        if can_kill and (not can_rejoin or rng.random() < 0.5):
            plan = model.kill(rng.choice(model.live))
        elif can_rejoin:
            plan = model.rejoin(rng.choice(model.dead))
        # After every membership change the hot counts are *exactly* the
        # targets.
        targets = rebalance_targets(model.n, model.live)
        counts = {r: len(model.hot[r]) for r in model.live}
        assert counts == targets, (plan, counts, targets)
        model.check()
        sigs.append(model.signature())
    return sigs


@pytest.mark.parametrize("seed", range(20))
def test_random_shrink_rejoin_sequences_keep_invariants(seed):
    for n in SIZES:
        drive(seed, n)


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_trajectory_is_deterministic(seed):
    for n in SIZES:
        assert drive(seed, n) == drive(seed, n)


def test_plan_is_pure_and_repeatable():
    model = PlannerModel()
    model.kill(1)
    model.dead.remove(1)
    model.live.append(1)
    model.live.sort()
    model.hot[1] = []
    a = model.plan()
    b = model.plan()
    assert a == b
    assert len(a) == rebalance_targets(N, model.live)[1]


def test_a_ledger_that_disagrees_with_storage_fails_the_plan():
    model = PlannerModel()
    model.kill(1)
    # Rank 0's storage lost a gid the ledger still says it holds hot.
    model.hot[0].pop()
    with pytest.raises(ValueError, match="ledger and storage disagree"):
        model.plan()


def test_everyone_dead_but_two_then_full_heal():
    model = PlannerModel()
    for r in (3, 2):
        model.kill(r)
        model.check()
    for r in (2, 3):
        model.rejoin(r)
        model.check()
    assert model.live == [0, 1, 2, 3]
    counts = {r: len(model.hot[r]) for r in model.live}
    assert counts == rebalance_targets(N, model.live)

"""The protocol model checker: real-model cleanliness + mutant detection.

The full CI matrix (including the ~200k-state two-round world) runs in the
``protocol-verify`` CI job via ``repro verify-protocol``; these tests keep
the tier-1 suite fast by exhausting the three quick configs and the whole
mutation sweep.
"""

from dataclasses import replace

import pytest

from repro.analysis.protocol import (
    DEFAULT_CONFIGS,
    EPOCH,
    MUTATIONS,
    CheckConfig,
    Violation,
    check,
    check_model,
    format_trace,
    run_mutation_sweep,
)
from repro.shuffle.engine import ROUND_TRANSITIONS, TERMINAL_ROUND_STATES

FAST_CONFIGS = tuple(c for c in DEFAULT_CONFIGS if c.name != "m2-r2-deadline")


@pytest.fixture(scope="module")
def fast_results():
    return [check(cfg) for cfg in FAST_CONFIGS]


class TestRealModel:
    def test_no_violations_in_any_fast_config(self, fast_results):
        for res in fast_results:
            assert not res.violations, (
                f"{res.config.name}: "
                + "\n".join(format_trace(v) for v in res.violations)
            )

    def test_exploration_is_nontrivial(self, fast_results):
        for res in fast_results:
            assert res.states > 100, res.config.name
            assert res.transitions > res.states

    def test_exhaustive_configs_are_not_truncated(self, fast_results):
        for res in fast_results:
            if res.config.max_depth is None:
                assert not res.truncated, res.config.name

    def test_transition_table_fully_covered(self, fast_results):
        covered = set()
        for res in fast_results:
            covered |= res.coverage
        missing = set(ROUND_TRANSITIONS) - covered
        assert not missing, f"table entries never exercised: {sorted(missing)}"
        # And nothing outside the table was ever used (advance would raise,
        # but assert the contract explicitly).
        assert covered <= set(ROUND_TRANSITIONS)

    def test_exploration_is_deterministic(self):
        cfg = FAST_CONFIGS[0]
        a, b = check(cfg), check(cfg)
        assert (a.states, a.transitions) == (b.states, b.transitions)


class TestMutants:
    def test_every_seeded_mutant_is_detected(self):
        results = run_mutation_sweep()
        survivors = [name for name, v in results.items() if v is None]
        assert not survivors, f"mutants survived undetected: {survivors}"
        assert set(results) == set(MUTATIONS) and len(results) == 12

    def test_counterexamples_carry_a_trace(self):
        results = run_mutation_sweep(mutations=("release_before_ack",))
        v = results["release_before_ack"]
        assert isinstance(v, Violation)
        assert v.kind == "double_retire"
        assert len(v.trace) >= 1
        text = format_trace(v)
        assert "double_retire" in text
        assert "1." in text

    def test_adopt_guard_race_needs_three_ranks(self):
        # The abort-abort double-adopt race needs two *survivors*: with
        # M=2 the kill leaves one rank aborting alone, so the mutant is
        # undetectable there — the M=3 config is what catches it.
        m2 = tuple(c for c in DEFAULT_CONFIGS if c.size == 2)
        assert all(
            not r.violations for r in check_model(m2, mutation="no_adopt_guard")
        )
        m3 = tuple(c for c in DEFAULT_CONFIGS if c.size == 3)
        results = check_model(m3, mutation="no_adopt_guard", stop_on_violation=True)
        assert any(r.violations for r in results)

    def test_dead_peer_filter_strands_a_bystander_only_without_a_deadline(self):
        # Raising only for dead peers of one's own frames leaves a survivor
        # whose frames involve no dead rank waiting on a live peer that
        # already aborted.  It takes three ranks, and a deadline hides it:
        # the stranded rank then leaves through the commit collective.
        bystander = next(c for c in DEFAULT_CONFIGS if c.name == "m3-nodeadline-kill")
        assert not check(bystander).violations
        mutant = replace(bystander, mutation="dead_peer_filter")
        res = check(mutant, stop_on_violation=True)
        assert res.violations and res.violations[0].kind == "deadlock"
        assert "'loop', 'aborted', 'dead'" in res.violations[0].detail
        assert not check(replace(mutant, deadline=True)).violations

    def test_timeout_mutant_deadlocks_without_deadline(self):
        cfg = CheckConfig(
            name="t",
            size=2,
            rounds=1,
            deadline=False,
            faults=("drop",),
            fault_budget=1,
            mutation="no_timeout_nack",
        )
        res = check(cfg, stop_on_violation=True)
        assert res.violations
        assert res.violations[0].kind == "deadlock"

    def test_stale_mutant_commits_a_past_epoch(self):
        cfg = CheckConfig(
            name="s",
            size=2,
            rounds=1,
            deadline=False,
            faults=("stale", "drop"),
            fault_budget=2,
            mutation="skip_stale_check",
        )
        res = check(cfg, stop_on_violation=True)
        assert res.violations
        assert res.violations[0].kind == "stale_commit"
        assert str(EPOCH - 2) in res.violations[0].detail

    def test_release_under_a_live_view_is_a_use_after_release(self):
        # The receiver's commit action is copy-out + release; installing
        # views of the frame instead and still releasing it must be caught.
        results = run_mutation_sweep(mutations=("release_under_view",))
        v = results["release_under_view"]
        assert isinstance(v, Violation), "mutant survived the sweep"
        assert v.kind == "use_after_release"
        assert any("commit" in step for step in v.trace)

    def test_ack_before_the_copy_out_lets_the_sender_overwrite_bytes_being_read(self):
        # It takes a second round for the sender to pack into the frame it
        # got back — and that round must still be unposted when the ACK is
        # consumed: the interleaving the lazily posted two-round world adds.
        r2 = next(c for c in DEFAULT_CONFIGS if c.name == "m2-r2-deadline")
        assert not check(replace(r2, faults=(), fault_budget=0)).violations
        res = check(replace(r2, mutation="ack_before_stage"), stop_on_violation=True)
        v = res.violations[0]
        assert v.kind == "use_after_release" and "copies out round 0" in v.detail
        ctrl = next(i for i, step in enumerate(v.trace) if "ctrl from" in step)
        post = next(i for i, step in enumerate(v.trace) if "post round 1" in step)
        assert ctrl < post < len(v.trace) - 1  # ACK consumed, frame reused, read

    def test_a_rolled_back_round_left_installed_breaks_the_shard_size(self):
        results = run_mutation_sweep(mutations=("stage_counts_as_commit",))
        v = results["stage_counts_as_commit"]
        assert isinstance(v, Violation), "mutant survived the sweep"
        assert v.kind == "shard_size"
        assert any("deadline expires" in step for step in v.trace)

    def test_a_frame_released_before_its_ack_is_retired_twice(self):
        v = run_mutation_sweep(mutations=("release_before_ack",))["release_before_ack"]
        assert v.kind == "double_retire" and "already released" in v.detail

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            run_mutation_sweep(mutations=("not_a_mutation",))


class TestModelShape:
    def test_plan_never_self_sends(self):
        for size in (2, 3, 4):
            for rounds in (1, 2, 3):
                cfg = CheckConfig(name="p", size=size, rounds=rounds)
                for r in range(size):
                    for i in range(rounds):
                        assert cfg.dest(r, i) != r
                        # src/dest are inverses: src(dest(r,i), i) == r
                        assert cfg.src(cfg.dest(r, i), i) == r

    def test_terminal_states_match_scheduler_table(self):
        # Terminal = no outgoing transition in the shared table.
        with_outgoing = {state for (_s, state, _e) in ROUND_TRANSITIONS}
        targets = set(ROUND_TRANSITIONS.values())
        assert TERMINAL_ROUND_STATES == targets - with_outgoing

    def test_faultfree_config_commits_everything(self):
        cfg = CheckConfig(name="clean", size=2, rounds=2, deadline=False)
        res = check(cfg)
        assert not res.violations
        assert res.states > 1

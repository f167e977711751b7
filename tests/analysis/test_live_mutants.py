"""Every lint rule fires on a one-line hazard written into live ``src/``.

The rule fixtures (``test_rules.py``, ``test_dataflow_rules.py``) lint
synthetic snippets.  Here each rule is held to a real site instead: the
module's own text with one line replaced or inserted, linted in memory
under its real path (the path decides the module name and the exemptions),
must raise that rule — and the unedited module must stay clean.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

SRC = Path(__file__).resolve().parents[2] / "src"

#: rule -> (module, anchor line, edit, new line).  ``replace`` swaps the
#: line holding ``anchor`` for the new one; ``after`` inserts the new line
#: below it.  Both keep the anchor's indentation.
MUTANTS = {
    # A collective only rank 0 reaches.
    "SPMD001": (
        "repro/train/trainer.py",
        "iters = comm.allreduce(len(loader), op=min)",
        "replace",
        "if comm.rank == 0: iters = comm.allreduce(len(loader), op=min)",
    ),
    # A posted receive whose request is dropped.
    "SPMD002": (
        "repro/shuffle/scheduler.py",
        "io.req = self.comm.irecv(source=spec.peer, tag=tag)",
        "replace",
        "self.comm.irecv(source=spec.peer, tag=tag)",
    ),
    # An unseeded generator on the shuffling path.
    "SPMD003": (
        "repro/shuffle/partial.py",
        "self.scheduler.scheduling(epoch)",
        "after",
        "self._rng = np.random.default_rng()",
    ),
    # A write into the buffer an allreduce returned, shared by every rank.
    "SPMD004": (
        "repro/train/distributed.py",
        "np.divide(comm.allreduce(grads), comm.size, out=grads)",
        "replace",
        "grads = comm.allreduce(grads); grads *= 1.0",
    ),
    # An assert in the training loop (stripped under -O).
    "SPMD005": (
        "repro/train/trainer.py",
        'check("begin")',
        "after",
        "assert epoch >= 0",
    ),
    # A literal tag on the exchange's control plane.
    "SPMD006": (
        "repro/shuffle/scheduler.py",
        "self.comm.send((kind, self.epoch, fr.window), dest=fr.peer, tag=self._ctrl_tag)",
        "replace",
        "self.comm.send((kind, self.epoch, fr.window), dest=fr.peer, tag=7)",
    ),
    # Branches of a rank-dependent if that run different collectives.
    "SPMD007": (
        "repro/shuffle/hierarchical.py",
        "inbound = leaders.alltoall(outboxes)",
        "after",
        "intra.barrier()",
    ),
    # An exit between a pool acquire and its release.
    "SPMD008": (
        "repro/mpi/codec.py",
        "buf = pool.acquire((n - 1) * stride + nbytes)",
        "after",
        "if nbytes < 0: return None",
    ),
    # An unbounded blocking receive on the fault path.
    "SPMD009": (
        "repro/shuffle/scheduler.py",
        "env = req.wait()",
        "after",
        "self.comm.recv(source=fr.peer)",
    ),
}


def mutate(text: str, anchor: str, edit: str, line: str) -> str:
    lines = text.splitlines(keepends=True)
    (i,) = [n for n, ln in enumerate(lines) if anchor in ln]
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    new = f"{indent}{line}\n"
    if edit == "replace":
        lines[i] = new
    else:
        lines.insert(i + 1, new)
    return "".join(lines)


@pytest.mark.parametrize("rule", sorted(MUTANTS))
def test_rule_flags_its_live_mutant(rule):
    module, anchor, edit, line = MUTANTS[rule]
    path = SRC / module
    text = path.read_text()
    assert lint_source(text, path=str(path)) == ([], 0)
    findings, _ = lint_source(mutate(text, anchor, edit, line), path=str(path))
    assert rule in {f.rule_id for f in findings}, [f.render() for f in findings]


def test_every_rule_has_a_live_mutant():
    from repro.analysis.rules import DEFAULT_RULES

    assert sorted(r.id for r in DEFAULT_RULES) == sorted(MUTANTS)

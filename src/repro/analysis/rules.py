"""The SPMD lint rules.

Each rule is a small AST pass over one module.  They encode the invariants
the shuffle/MPI stack's docstrings demand but the type system cannot see:

========  ==================================================================
SPMD001   collective call under rank-dependent control flow (deadlock risk)
SPMD002   ``isend``/``irecv`` request discarded or never completed (leak)
SPMD003   raw RNG outside ``utils/rng.py`` (breaks the seed-tree contract)
SPMD004   buffer mutated after being sent/contributed (zero-copy aliasing)
SPMD005   bare ``assert`` in library code (stripped under ``python -O``)
SPMD006   wire tag unregistered or sent on another subsystem's range
SPMD007   ``if``/``else`` branches perform different collective orders
SPMD008   pool buffer can leave its scope unreleased/unadopted
SPMD009   unbounded blocking recv on a fault-tolerant path
========  ==================================================================

SPMD001–005 are deliberately *syntactic*: one function at a time, source
order, no inter-procedural flow.  SPMD006–009 are *dataflow* rules built
on :mod:`repro.analysis.summaries`: per-function communication/ownership
summaries with constant folding against the live tag registry, spliced
transitively through the module's own call graph.  A finding that is
provably safe in context can be silenced in place with
``# repro: noqa[SPMD00x]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .findings import Finding, Severity

__all__ = [
    "FileContext",
    "Rule",
    "DEFAULT_RULES",
    "COLLECTIVE_METHODS",
    "COLLECTIVE_HELPERS",
    "RankDependentCollective",
    "LeakedRequest",
    "RawRandomSource",
    "MutateAfterSend",
    "BareAssert",
    "TagCollision",
    "CollectiveOrderDivergence",
    "UnreleasedPoolBuffer",
    "UnboundedBlockingRecv",
]

#: Method names that are collective over the communicator: every rank must
#: reach them in the same order or the rendezvous deadlocks.
COLLECTIVE_METHODS = frozenset({
    "barrier", "bcast", "broadcast", "allreduce", "reduce", "alltoall",
    "allgather", "gather", "scatter", "split", "dup", "shrink",
})

#: Free functions in this repo that wrap collectives and inherit the same
#: every-rank-must-call contract.
COLLECTIVE_HELPERS = frozenset({
    "broadcast_model", "allreduce_gradients", "allreduce_batchnorm_stats",
    "hierarchical_exchange",
})

#: Method names that hand a buffer to a peer (p2p or collective
#: contribution).  Mutating a bare-name argument afterwards writes into the
#: receiver's object: payloads travel by reference.
_SENDING_METHODS = frozenset({
    "send", "isend", "bcast", "allreduce", "reduce", "alltoall",
    "allgather", "gather", "scatter",
})

#: In-place methods on ndarrays / lists / dicts that count as mutation.
_MUTATING_METHODS = frozenset({
    "fill", "sort", "put", "resize", "itemset", "setfield", "partition",
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "setdefault", "popitem", "reverse",
})

#: Legacy ``np.random`` module-level entry points that draw from (or seed)
#: hidden global state — never reproducible across SPMD ranks.
_NUMPY_GLOBAL_STATE = frozenset({
    "seed", "rand", "randn", "randint", "random", "choice", "shuffle",
    "permutation", "standard_normal", "uniform", "normal",
})


@dataclass
class FileContext:
    """Everything a rule may need to know about the module being linted."""

    path: str
    tree: ast.Module
    source: str
    #: Test/fixture code is exempt from the determinism and assert rules.
    is_test: bool = False
    #: ``utils/rng.py`` is the one sanctioned home of raw RNG construction.
    is_rng_module: bool = False

    @classmethod
    def for_path(cls, path: str, tree: ast.Module, source: str) -> "FileContext":
        parts = Path(path).parts
        name = Path(path).name
        is_test = (
            "tests" in parts
            or "fixtures" in parts
            or name.startswith(("test_", "conftest"))
        )
        is_rng = name == "rng.py" and len(parts) >= 2 and parts[-2] == "utils"
        return cls(path=path, tree=tree, source=source,
                   is_test=is_test, is_rng_module=is_rng)


class Rule:
    """Base class: one rule id, one AST pass."""

    id: str = "SPMD000"
    title: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for the module in ``ctx``."""
        raise NotImplementedError

    def _finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


# --------------------------------------------------------------------------
# helpers shared by several rules


def _call_method_name(call: ast.Call) -> str | None:
    """``obj.meth(...)`` -> ``"meth"``; bare ``fn(...)`` -> None."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _call_free_name(call: ast.Call) -> str | None:
    """Bare ``fn(...)`` -> ``"fn"``; method calls -> None."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _mentions_rank(node: ast.AST) -> bool:
    """Does this expression depend on the caller's rank?

    Matches ``<x>.rank`` / ``<x>.Get_rank()`` attribute reads and bare
    names that are exactly or end in ``rank`` (``rank``, ``vrank``,
    ``world_rank`` ...) — the naming convention this codebase (and most
    mpi4py code) uses for the SPMD index.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank", "Get_rank"):
            return True
        if isinstance(sub, ast.Name) and (
            sub.id == "rank" or sub.id.endswith("rank")
        ):
            return True
    return False


def _function_scopes(tree: ast.Module) -> list[ast.AST]:
    """Module plus every (async) function definition, outermost first."""
    scopes: list[ast.AST] = [tree]
    scopes.extend(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return scopes


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node inside ``scope`` without descending into nested function
    bodies (each nested def is analysed as its own scope)."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


# --------------------------------------------------------------------------
# SPMD001


class RankDependentCollective(Rule):
    """Collective invoked under rank-dependent control flow.

    A collective is a rendezvous: every rank of the communicator must call
    it, in the same order.  Guarding one behind ``if comm.rank == 0:`` (or
    a loop whose trip count depends on the rank) means the other ranks
    never arrive and the job deadlocks — the failure RINAS/Corgi²-style
    shuffling stacks hit in exactly this layer.  Hoist the collective out
    of the branch and make its *argument* rank-dependent instead
    (``comm.bcast(x if comm.rank == root else None)``).
    """

    id = "SPMD001"
    title = "collective under rank-dependent control flow"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree, rank_dep=False)

    def _visit(self, ctx: FileContext, node: ast.AST, rank_dep: bool):
        for child in ast.iter_child_nodes(node):
            child_dep = rank_dep
            if isinstance(child, (ast.If, ast.While)) and _mentions_rank(child.test):
                child_dep = True
            elif isinstance(child, ast.For) and _mentions_rank(child.iter):
                child_dep = True
            if isinstance(child, ast.Call):
                name = _call_method_name(child)
                if rank_dep and name in COLLECTIVE_METHODS:
                    yield self._finding(
                        ctx, child,
                        f"collective '{name}' called under rank-dependent "
                        "control flow; peers that skip this branch never "
                        "enter the rendezvous and the job deadlocks",
                    )
                free = _call_free_name(child)
                if rank_dep and free in COLLECTIVE_HELPERS:
                    yield self._finding(
                        ctx, child,
                        f"collective helper '{free}' called under "
                        "rank-dependent control flow (it must run on every "
                        "rank)",
                    )
            yield from self._visit(ctx, child, child_dep)


# --------------------------------------------------------------------------
# SPMD002


class LeakedRequest(Rule):
    """``isend``/``irecv`` whose ``Request`` is discarded or never used.

    A dropped ``irecv`` request means the matching message is never
    consumed: it sits in the mailbox and can be stolen by a later
    wildcard receive, corrupting the exchange an epoch later — a silent
    accuracy bug, not a crash.  Keep the handle and complete it with
    ``wait()``/``waitall``.
    """

    id = "SPMD002"
    title = "leaked non-blocking request"

    _REQ_CALLS = frozenset({"isend", "irecv"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in _function_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: FileContext, scope: ast.AST):
        # Names bound directly to a request-returning call in this scope.
        bound: dict[str, ast.Call] = {}
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                name = _call_method_name(call)
                if name in self._REQ_CALLS:
                    yield self._finding(
                        ctx, call,
                        f"result of '{name}' is discarded; the returned "
                        "Request must be kept and completed with wait()",
                    )
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
                name = _call_method_name(call)
                if name in self._REQ_CALLS and len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name):
                    bound[node.targets[0].id] = call
        if not bound:
            return
        # Loads are collected over the full subtree (including nested
        # closures, which may legitimately complete an enclosing request).
        loaded = {
            n.id for n in ast.walk(scope)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for var, call in bound.items():
            if var not in loaded:
                kind = _call_method_name(call)
                yield self._finding(
                    ctx, call,
                    f"request from '{kind}' is bound to '{var}' but never "
                    "used; complete it with wait() (or waitall)",
                )


# --------------------------------------------------------------------------
# SPMD003


class RawRandomSource(Rule):
    """Raw RNG construction outside ``utils/rng.py`` and test code.

    Algorithm 1 is only correct when every rank derives its streams from
    the shared :class:`~repro.utils.rng.SeedTree`: the stdlib ``random``
    module is process-global (ranks are threads — they'd share and race on
    one stream), ``np.random.*`` module functions use hidden global state,
    and ``np.random.default_rng(<literal>)`` hard-wires one fixed stream
    into every call site that hits the default path.  Route streams
    through ``repro.utils.rng`` instead.
    """

    id = "SPMD003"
    title = "raw RNG outside utils/rng.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_rng_module or ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_import(self, ctx: FileContext, node: ast.AST):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield self._finding(
                        ctx, node,
                        "stdlib 'random' is process-global state shared by "
                        "all rank threads; use repro.utils.rng streams",
                    )
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            yield self._finding(
                ctx, node,
                "importing from stdlib 'random' bypasses the seed tree; "
                "use repro.utils.rng streams",
            )

    def _check_call(self, ctx: FileContext, call: ast.Call):
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        # random.<fn>(...)
        if isinstance(func.value, ast.Name) and func.value.id == "random":
            yield self._finding(
                ctx, call,
                f"'random.{func.attr}' draws from the process-global "
                "stdlib stream; use repro.utils.rng streams",
            )
            return
        # <np>.random.<fn>(...) — any alias of the numpy module.
        value = func.value
        if not (isinstance(value, ast.Attribute) and value.attr == "random"):
            return
        if func.attr in _NUMPY_GLOBAL_STATE:
            yield self._finding(
                ctx, call,
                f"'np.random.{func.attr}' uses numpy's hidden global "
                "state; derive a Generator via repro.utils.rng",
            )
        elif func.attr in ("default_rng", "RandomState"):
            if not call.args:
                yield self._finding(
                    ctx, call,
                    f"'np.random.{func.attr}()' without a seed is "
                    "nondeterministic and rank-divergent; derive the "
                    "stream via repro.utils.rng",
                )
            elif isinstance(call.args[0], ast.Constant) and \
                    isinstance(call.args[0].value, int):
                yield self._finding(
                    ctx, call,
                    f"'np.random.{func.attr}({call.args[0].value})' "
                    "hard-wires one fixed stream into every caller that "
                    "hits this default; route it through repro.utils.rng "
                    "(e.g. utils.rng.default_rng())",
                )


# --------------------------------------------------------------------------
# SPMD004


class MutateAfterSend(Rule):
    """Variable mutated after being sent/contributed in the same scope.

    A payload travels by reference: until
    every peer has completed the matching receive/collective, the sender
    and receivers alias one buffer, and an in-place write on the sender
    corrupts data mid-flight (the MPI buffer-ownership rule).  Send a
    ``.copy()``, or delay the mutation past the synchronisation point.

    The check is linear in source order within one function and does not
    model loops or synchronisation calls — rebinding the name
    (``buf = ...``) ends the tracked aliasing.
    """

    id = "SPMD004"
    title = "mutation of a sent buffer"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in _function_scopes(ctx.tree):
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: FileContext, scope: ast.AST):
        events: list[tuple[int, int, str, str, ast.AST]] = []
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Call):
                name = _call_method_name(node)
                if name in _SENDING_METHODS:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        if isinstance(arg, ast.Name):
                            events.append(
                                (node.lineno, node.col_offset, "send",
                                 arg.id, node)
                            )
                # <name>.mutator(...)
                if name in _MUTATING_METHODS and \
                        isinstance(node.func.value, ast.Name):
                    events.append(
                        (node.lineno, node.col_offset, "mutate",
                         node.func.value.id, node)
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name):
                        events.append(
                            (node.lineno, node.col_offset, "mutate",
                             target.value.id, node)
                        )
                    elif isinstance(target, ast.Name):
                        events.append(
                            (node.lineno, node.col_offset, "rebind",
                             target.id, node)
                        )
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name):
                    events.append(
                        (node.lineno, node.col_offset, "mutate",
                         target.id, node)
                    )
                elif isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name):
                    events.append(
                        (node.lineno, node.col_offset, "mutate",
                         target.value.id, node)
                    )
        events.sort(key=lambda e: (e[0], e[1]))
        in_flight: dict[str, int] = {}
        for lineno, _col, kind, name, node in events:
            if kind == "send":
                in_flight[name] = lineno
            elif kind == "rebind":
                in_flight.pop(name, None)
            elif kind == "mutate" and name in in_flight:
                yield self._finding(
                    ctx, node,
                    f"'{name}' is mutated after being sent/contributed on "
                    f"line {in_flight[name]}; the peers still alias this "
                    "buffer — send a .copy() or move the mutation past the "
                    "synchronisation point",
                )
                del in_flight[name]  # one finding per send is enough


# --------------------------------------------------------------------------
# SPMD005


class BareAssert(Rule):
    """``assert`` in library code.

    Asserts vanish under ``python -O``, so an invariant guarded only by
    one silently stops being checked in optimised production runs —
    turning a loud failure into the silent-accuracy-loss mode this stack
    must avoid.  Raise ``ValueError``/``RuntimeError`` instead.  Test code
    is exempt (pytest rewrites asserts and never runs under ``-O``).
    """

    id = "SPMD005"
    title = "bare assert in library code"
    severity = Severity.WARNING

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self._finding(
                    ctx, node,
                    "bare assert is stripped under 'python -O'; raise "
                    "ValueError/RuntimeError so the invariant survives "
                    "optimised runs",
                )


# --------------------------------------------------------------------------
# SPMD006


class TagCollision(Rule):
    """P2p tag outside the registry, or sent on another subsystem's range.

    Every wire tag must come from :mod:`repro.mpi.tags`; two subsystems
    improvising literals in the same interval silently cross-deliver
    messages (the pre-registry tree/barrier tags sat *inside* the ring
    allreduce's per-step interval).  The rule folds each ``tag=`` argument
    through module constants and ``TagRange`` arithmetic: an exact tag
    that no registered range contains, or a ``send``/``isend`` whose
    resolved range is owned by a different subsystem than the sending
    module, is a finding.  Tags it cannot resolve statically are skipped.
    """

    id = "SPMD006"
    title = "unregistered or cross-subsystem wire tag"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from .summaries import module_summary

        if ctx.is_test:
            return
        mod = module_summary(ctx)
        if mod.module is None:  # not repro.* source — no ownership to check
            return
        from repro.mpi import tags as tag_registry

        for fs in mod.functions.values():
            for ev in fs.comm_events:
                rng = ev.tag_range
                if ev.tag is not None and rng is None:
                    rng = tag_registry.lookup(ev.tag)
                    if rng is None:
                        yield self._finding(
                            ctx, ev.node,
                            f"tag {ev.tag} is not inside any range of "
                            "repro.mpi.tags; allocate a TagRange there so "
                            "collisions are caught by construction",
                        )
                        continue
                if rng is None:
                    continue  # dynamic tag the fold cannot see through
                if ev.is_send and not (
                    mod.module == rng.owner
                    or mod.module.startswith(rng.owner + ".")
                ):
                    yield self._finding(
                        ctx, ev.node,
                        f"send on tag range '{rng.name}' owned by "
                        f"{rng.owner}, but this module is {mod.module}; "
                        "use (or allocate) a range owned by this subsystem",
                    )


# --------------------------------------------------------------------------
# SPMD007


class CollectiveOrderDivergence(Rule):
    """``if``/``else`` whose branches perform different collective orders.

    SPMD001 catches collectives guarded by *rank-dependent* conditions;
    this rule catches the subtler bug where both branches do call
    collectives but in different orders (or different collectives), so any
    predicate that can disagree across ranks — a data-dependent loss
    check, a per-rank queue depth — interleaves two rendezvous schedules
    and deadlocks.  Branch sequences are computed transitively through
    same-module helpers, so hiding the second ``allreduce`` one call down
    does not hide the divergence.

    Ordering is a per-communicator contract, so sequences are compared
    per receiver: a communicator appearing in only one branch is the
    split-subcommunicator idiom (``leaders.alltoall`` inside
    ``if is_leader:``) or SPMD001's business, not a divergence.
    """

    id = "SPMD007"
    title = "collective ordering diverges across branches"
    severity = Severity.ERROR

    @staticmethod
    def _by_comm(seq):
        by: dict[str, list[str]] = {}
        for op, recv in seq:
            by.setdefault(recv, []).append(op)
        return by

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from .summaries import module_summary

        if ctx.is_test:
            return
        mod = module_summary(ctx)
        for fs in mod.functions.values():
            for node in ast.walk(fs.node):
                if not (isinstance(node, ast.If) and node.body and node.orelse):
                    continue
                then_by = self._by_comm(mod.sequence_of(node.body, fs.cls))
                else_by = self._by_comm(mod.sequence_of(node.orelse, fs.cls))
                for comm in sorted(set(then_by) & set(else_by)):
                    if then_by[comm] != else_by[comm]:
                        yield self._finding(
                            ctx, node,
                            f"the branches call collectives on '{comm}' in "
                            f"different orders ({', '.join(then_by[comm])}) "
                            f"vs ({', '.join(else_by[comm])}); if the "
                            "condition can disagree across ranks the "
                            "rendezvous schedules interleave and deadlock "
                            "— hoist the collectives out of the branch",
                        )


# --------------------------------------------------------------------------
# SPMD008


#: Builtins that may take a tracked buffer without taking ownership of it.
_NON_ESCAPING_CALLS = frozenset({
    "isinstance", "len", "type", "id", "repr", "str", "print",
})

#: Methods that retire a pool buffer (return it or transfer ownership).
_RETIRING_METHODS = frozenset({"release", "adopt", "try_adopt"})


class UnreleasedPoolBuffer(Rule):
    """Pool buffer acquired on a path that can leave without retiring it.

    A :class:`~repro.mpi.pool.BufferPool` buffer must end every control
    path either retired (``release``/``adopt``/``try_adopt``) or escaped
    to a new owner (returned, stored into a container/attribute, or
    passed to a non-trivial call).  An early ``return`` or ``raise``
    while one is still held leaks it from the pool's in-use ledger — the
    exact bug class the protocol model checker's ``buffer_leak`` invariant
    chases at runtime; this rule catches it at lint time.
    """

    id = "SPMD008"
    title = "pool buffer can leave scope unreleased"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        for scope in _function_scopes(ctx.tree):
            if isinstance(scope, ast.Module):
                continue
            yield from self._check_scope(ctx, scope)

    @staticmethod
    def _is_acquire(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        f = value.func
        if isinstance(f, ast.Attribute) and f.attr == "acquire":
            recv = f.value
            name = recv.attr if isinstance(recv, ast.Attribute) else (
                recv.id if isinstance(recv, ast.Name) else ""
            )
            return name.endswith("pool")
        return (
            isinstance(f, ast.Name)
            and f.id == "pack_samples"
            and any(k.arg == "pool" for k in value.keywords)
        )

    def _check_scope(self, ctx: FileContext, scope: ast.AST):
        # (line, col, kind, name, node); kinds: acquire/retire/escape/exit
        events: list[tuple[int, int, str, str | None, ast.AST]] = []
        tracked: set[str] = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign):
                if len(node.targets) == 1 and \
                        isinstance(node.targets[0], ast.Name) and \
                        self._is_acquire(node.value):
                    name = node.targets[0].id
                    tracked.add(name)
                    events.append(
                        (node.lineno, node.col_offset, "acquire", name, node)
                    )
                elif any(
                    isinstance(t, (ast.Subscript, ast.Attribute))
                    for t in node.targets
                ):
                    # stored into a container/attribute: a new owner exists
                    for sub in ast.walk(node.value):
                        if isinstance(sub, ast.Name):
                            events.append(
                                (node.lineno, node.col_offset, "escape",
                                 sub.id, node)
                            )
            elif isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and \
                        f.attr in _RETIRING_METHODS and \
                        isinstance(f.value, ast.Name):
                    events.append(
                        (node.lineno, node.col_offset, "retire",
                         f.value.id, node)
                    )
                elif not (
                    isinstance(f, ast.Name) and f.id in _NON_ESCAPING_CALLS
                ):
                    for arg in list(node.args) + [k.value for k in node.keywords]:
                        if isinstance(arg, ast.Name):
                            events.append(
                                (node.lineno, node.col_offset, "escape",
                                 arg.id, node)
                            )
            elif isinstance(node, ast.Return):
                names = set()
                if node.value is not None:
                    names = {
                        s.id for s in ast.walk(node.value)
                        if isinstance(s, ast.Name)
                    }
                events.append(
                    (node.lineno, node.col_offset, "exit", None, node)
                )
                for n in names:
                    events.append(
                        (node.lineno, node.col_offset - 1, "escape", n, node)
                    )
            elif isinstance(node, ast.Raise):
                events.append(
                    (node.lineno, node.col_offset, "exit", None, node)
                )
        if not tracked:
            return
        events.sort(key=lambda e: (e[0], e[1]))
        live: dict[str, ast.AST] = {}
        for _ln, _col, kind, name, node in events:
            if kind == "acquire":
                live[name] = node
            elif kind in ("retire", "escape") and name in live:
                del live[name]
            elif kind == "exit" and live:
                held = ", ".join(sorted(live))
                yield self._finding(
                    ctx, node,
                    f"pool buffer(s) {held} still held when this path "
                    "leaves the function; release/adopt them (or hand them "
                    "to a new owner) on every exit path",
                )
                live.clear()  # one finding per exit path is enough
        for name, node in live.items():
            yield self._finding(
                ctx, node,
                f"pool buffer '{name}' is never released, adopted or "
                "handed to a new owner before the function ends",
            )


# --------------------------------------------------------------------------
# SPMD009


class UnboundedBlockingRecv(Rule):
    """Blocking receive with no deadline inside fault-tolerant code.

    A module that detects or raises peer failures is promising to make
    progress when a peer dies — but a bare ``recv()``/``probe()`` blocks
    forever on a message the dead peer will never send.  Fault-tolerant
    paths must either poll (``while not comm.iprobe(...)`` with failure
    checks in the loop body) or pass a ``timeout=``/``deadline=`` so the
    wait is bounded.  Modules that never touch the failure machinery are
    exempt: their blocking receives are ordinary rendezvous.
    """

    id = "SPMD009"
    title = "unbounded blocking recv on a fault-tolerant path"
    severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from .summaries import module_summary

        if ctx.is_test:
            return
        mod = module_summary(ctx)
        for qual, fs in mod.functions.items():
            if not mod.is_fault_path(qual):
                continue
            for ev in fs.comm_events:
                if ev.is_blocking and not ev.has_timeout and \
                        not ev.iprobe_guarded:
                    yield self._finding(
                        ctx, ev.node,
                        f"blocking {ev.method}() on a fault-tolerant path "
                        "with no timeout/deadline and no iprobe guard; a "
                        "dead peer makes this wait forever — poll with "
                        "iprobe or pass a deadline",
                    )


#: The rule set ``repro lint`` runs by default, in report order.
DEFAULT_RULES: tuple[Rule, ...] = (
    RankDependentCollective(),
    LeakedRequest(),
    RawRandomSource(),
    MutateAfterSend(),
    BareAssert(),
    TagCollision(),
    CollectiveOrderDivergence(),
    UnreleasedPoolBuffer(),
    UnboundedBlockingRecv(),
)

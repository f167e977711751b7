"""Per-function communication/ownership summaries for interprocedural lint.

The v1 rules (SPMD001–005) are single-pass pattern matchers; the v2 rules
(SPMD006–009) reason about *flow*: which wire tag a send resolves to, what
sequence of collectives a branch performs transitively, whether a pool
buffer can leave a function unretired, and whether a blocking receive sits
on a fault-tolerant path.  This module computes the shared substrate once
per file:

* **Constant environment** — module-level integer constants folded from
  literals and arithmetic (``+ - * << | %``), names imported from
  :mod:`repro.mpi.tags` resolved against the live registry (both
  :class:`~repro.mpi.tags.TagRange` objects and plain ints), and
  attribute reads like ``RECOVERY.base``.
* **Comm events** — every p2p call (``send``/``isend``/``recv``/
  ``irecv``/``probe``/``iprobe``) with its tag expression resolved to an
  exact integer, a :class:`~repro.mpi.tags.TagRange` (when only the base
  is static, e.g. ``_BASE + step`` or ``EXCHANGE_DATA.tag(i,
  parity=parity)``), or ``None``; plus whether the call carries a
  timeout/deadline keyword and whether it sits inside a ``while`` loop
  guarded by ``iprobe`` (the non-blocking drain idiom).
* **Collective sequences** — per function, the ordered collective ops it
  performs, *spliced transitively* through calls to same-module functions
  and ``self.``-methods (memoised, cycle-safe).
* **Ownership events** — pool ``acquire`` bindings and the release /
  adopt / escape events that retire them, in source order.
* **Fault-path marking** — functions that raise or handle
  ``PeerFailure`` / ``UnrecoveredFaultError`` / ``RankDied`` or consult
  ``dead_peers()``, propagated up the local call graph.

Summaries are cached on the :class:`~repro.analysis.rules.FileContext`
so the four consuming rules share one analysis pass per file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.mpi import tags as tag_registry
from repro.mpi.tags import TagRange

__all__ = [
    "CommEvent",
    "OwnershipEvent",
    "FunctionSummary",
    "ModuleSummary",
    "module_summary",
    "module_name_for",
    "P2P_SEND", "P2P_RECV", "P2P_BLOCKING",
]

#: P2p call classes by method name.
P2P_SEND = frozenset({"send", "isend"})
P2P_RECV = frozenset({"recv", "irecv", "probe", "iprobe"})
P2P_BLOCKING = frozenset({"recv", "probe"})

_FAULT_NAMES = frozenset({"PeerFailure", "UnrecoveredFaultError", "RankDied"})
_TIMEOUT_KWARGS = frozenset({"timeout", "timeout_s", "deadline", "deadline_s"})

#: Builtins a bare-name argument can be passed to without the buffer
#: escaping the function's ownership responsibility.
_NON_ESCAPING_CALLS = frozenset({
    "isinstance", "len", "type", "id", "repr", "str", "print",
})

_FOLDABLE_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.LShift: lambda a, b: a << b,
    ast.BitOr: lambda a, b: a | b,
    ast.Mod: lambda a, b: a % b,
    ast.FloorDiv: lambda a, b: a // b,
}


def module_name_for(path: str) -> str | None:
    """Dotted module name for a repo source path, or ``None``.

    ``src/repro/mpi/world.py`` → ``repro.mpi.world``.  Paths not
    under a ``repro`` package root return ``None`` (no ownership checks).
    """
    parts = list(Path(path).parts)
    if "repro" not in parts:
        return None
    i = parts.index("repro")
    mods = parts[i:-1] + [Path(parts[-1]).stem]
    if mods[-1] == "__init__":
        mods = mods[:-1]
    return ".".join(mods)


@dataclass
class CommEvent:
    """One p2p call with its resolved tag."""

    method: str                       # send / isend / recv / irecv / ...
    node: ast.Call
    tag: int | None = None            # exact folded wire tag
    tag_range: TagRange | None = None  # known base range, dynamic offset
    has_timeout: bool = False
    #: Inside ``while <...iprobe...>:`` — the non-blocking drain idiom.
    iprobe_guarded: bool = False

    @property
    def is_send(self) -> bool:
        return self.method in P2P_SEND

    @property
    def is_blocking(self) -> bool:
        return self.method in P2P_BLOCKING


@dataclass
class OwnershipEvent:
    """Pool-buffer lifecycle event, in source order within one function."""

    kind: str        # acquire | retire | escape
    name: str        # the local variable bound to the buffer
    node: ast.AST


@dataclass
class FunctionSummary:
    qualname: str
    node: ast.AST
    cls: str | None = None  # enclosing class name, for self.-method splicing
    #: Collective ops called directly as ``("op", name, receiver)`` — the
    #: receiver identifies *which* communicator the rendezvous is on — with
    #: local call sites kept in order as ``("call", qualname, "")`` markers
    #: for transitive splicing.
    ops: list[tuple[str, str, str]] = field(default_factory=list)
    comm_events: list[CommEvent] = field(default_factory=list)
    ownership: list[OwnershipEvent] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)  # resolvable local callees
    fault_direct: bool = False


class ModuleSummary:
    """All function summaries of one module plus the constant environment."""

    def __init__(self, tree: ast.Module, path: str):
        self.path = path
        self.module = module_name_for(path)
        self.constants: dict[str, object] = {}   # name -> int | TagRange
        self.functions: dict[str, FunctionSummary] = {}
        self._seq_memo: dict[str, tuple[str, ...]] = {}
        self._fault_memo: dict[str, bool] = {}
        self._collect_constants(tree)
        self._collect_functions(tree)

    # ----------------------------------------------------------- constants
    def _collect_constants(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("tags") or node.module == "repro.mpi.tags"
            ):
                for alias in node.names:
                    obj = getattr(tag_registry, alias.name, None)
                    if isinstance(obj, (int, TagRange)):
                        self.constants[alias.asname or alias.name] = obj
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                val = self.fold(node.value, {})
                if val is not None:
                    self.constants[node.targets[0].id] = val

    def fold(self, node: ast.AST, local: dict[str, object]) -> object | None:
        """Fold an expression to an int or TagRange, or ``None``."""
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        if isinstance(node, ast.Name):
            return local.get(node.id, self.constants.get(node.id))
        if isinstance(node, ast.Attribute):
            base = self.fold(node.value, local)
            if isinstance(base, TagRange) and node.attr in ("base", "width"):
                return getattr(base, node.attr)
            return None
        if isinstance(node, ast.BinOp) and type(node.op) in _FOLDABLE_BINOPS:
            left = self.fold(node.left, local)
            right = self.fold(node.right, local)
            if isinstance(left, int) and isinstance(right, int):
                return _FOLDABLE_BINOPS[type(node.op)](left, right)
            return None
        if isinstance(node, ast.Call):
            # <range>.tag(offset, parity=...): exact when everything folds,
            # otherwise at least the range is known.
            if isinstance(node.func, ast.Attribute) and node.func.attr == "tag":
                rng = self.fold(node.func.value, local)
                if isinstance(rng, TagRange):
                    args = [self.fold(a, local) for a in node.args]
                    kw = {k.arg: self.fold(k.value, local) for k in node.keywords}
                    if all(isinstance(a, int) for a in args) and all(
                        isinstance(v, int) for v in kw.values()
                    ):
                        try:
                            return rng.tag(*args, **kw)
                        except (TypeError, ValueError):
                            return rng
                    return rng
            return None
        return None

    def resolve_tag(self, node: ast.AST, local: dict[str, object]):
        """``(exact_tag, tag_range)`` for a tag expression.

        Additive expressions whose left spine folds resolve to the range
        containing the static base (``_BASE + size + step`` → the range
        holding ``_BASE``) even when the full offset is dynamic.
        """
        val = self.fold(node, local)
        if isinstance(val, int):
            return val, tag_registry.lookup(val)
        if isinstance(val, TagRange):
            return None, val
        # Left-spine approximation for base + dynamic-offset tags.
        cur = node
        while isinstance(cur, ast.BinOp) and isinstance(cur.op, ast.Add):
            left = self.fold(cur.left, local)
            if isinstance(left, int):
                return None, tag_registry.lookup(left)
            if isinstance(left, TagRange):
                return None, left
            cur = cur.left
        return None, None

    # ----------------------------------------------------------- functions
    def _collect_functions(self, tree: ast.Module) -> None:
        def visit(node: ast.AST, prefix: str, cls: str | None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    self.functions[qual] = self._summarise(child, qual, cls)
                    visit(child, f"{qual}.<locals>.", cls)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{child.name}.", child.name)
                else:
                    visit(child, prefix, cls)

        visit(tree, "", None)

    def _resolve_call(self, call: ast.Call, cls: str | None) -> str | None:
        """Qualname of a same-module callee, or ``None``."""
        if isinstance(call.func, ast.Name) and call.func.id in self.functions:
            return call.func.id
        if (
            cls is not None
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        ):
            qual = f"{cls}.{call.func.attr}"
            if qual in self.functions:
                return qual
        return None

    def _summarise(self, fn: ast.AST, qual: str, cls: str | None) -> FunctionSummary:
        s = FunctionSummary(qualname=qual, node=fn, cls=cls)
        local: dict[str, object] = {}

        def is_pool_acquire(call: ast.Call) -> bool:
            # <...>pool.acquire(...) — receiver named or ending in 'pool'.
            f = call.func
            if not (isinstance(f, ast.Attribute) and f.attr == "acquire"):
                return False
            recv = f.value
            name = recv.attr if isinstance(recv, ast.Attribute) else (
                recv.id if isinstance(recv, ast.Name) else ""
            )
            return name.endswith("pool")

        def walk(node: ast.AST, loops: tuple[ast.While, ...]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # nested defs are their own summaries
                child_loops = loops
                if isinstance(child, ast.While):
                    child_loops = loops + (child,)

                if isinstance(child, ast.Assign) and isinstance(child.value, ast.AST):
                    # Track local tag bindings for later tag= resolution,
                    # and pool-buffer bindings for ownership events.
                    if len(child.targets) == 1 and isinstance(child.targets[0], ast.Name):
                        tgt = child.targets[0].id
                        val = self.fold(child.value, local)
                        if val is not None:
                            local[tgt] = val
                        elif tgt in local:
                            del local[tgt]
                        if isinstance(child.value, ast.Call) and (
                            is_pool_acquire(child.value)
                            or (
                                isinstance(child.value.func, ast.Name)
                                and child.value.func.id == "pack_samples"
                                and any(k.arg == "pool" for k in child.value.keywords)
                            )
                        ):
                            s.ownership.append(
                                OwnershipEvent("acquire", tgt, child.value)
                            )

                if isinstance(child, ast.Call):
                    self._record_call(s, child, cls, local, child_loops)

                walk(child, child_loops)

        walk(fn, ())

        # Fault-path markers: raised/handled fault types, dead_peers() use.
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _exc_name(node.exc)
                if name in _FAULT_NAMES:
                    s.fault_direct = True
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = [_exc_name(t) for t in _flatten_tuple(node.type)]
                if any(n in _FAULT_NAMES for n in names):
                    s.fault_direct = True
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "dead_peers":
                s.fault_direct = True
        return s

    def _record_call(
        self,
        s: FunctionSummary,
        call: ast.Call,
        cls: str | None,
        local: dict[str, object],
        loops: tuple[ast.While, ...],
    ) -> None:
        from .rules import COLLECTIVE_HELPERS, COLLECTIVE_METHODS

        func = call.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            if name in COLLECTIVE_METHODS:
                s.ops.append(("op", name, _receiver_name(func.value)))
            if name in P2P_SEND | P2P_RECV:
                tag_expr = next(
                    (k.value for k in call.keywords if k.arg == "tag"), None
                )
                tag, rng = (
                    self.resolve_tag(tag_expr, local)
                    if tag_expr is not None
                    else (None, None)
                )
                guarded = any(
                    any(
                        isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "iprobe"
                        for n in ast.walk(w.test)
                    )
                    for w in loops
                )
                s.comm_events.append(
                    CommEvent(
                        method=name,
                        node=call,
                        tag=tag,
                        tag_range=rng,
                        has_timeout=any(
                            k.arg in _TIMEOUT_KWARGS for k in call.keywords
                        ),
                        iprobe_guarded=guarded,
                    )
                )
        elif isinstance(func, ast.Name) and func.id in COLLECTIVE_HELPERS:
            s.ops.append(("op", func.id, _helper_receiver(call)))
        callee = self._resolve_call(call, cls)
        if callee is not None:
            s.calls.add(callee)
            s.ops.append(("call", callee, ""))

    # ------------------------------------------------------- transitive
    def collective_sequence(self, qualname: str) -> tuple[tuple[str, str], ...]:
        """Ordered ``(op, receiver)`` collectives of ``qualname``, spliced
        through local calls."""
        return self._seq(qualname, frozenset())

    def _seq(self, qualname: str, active: frozenset) -> tuple[tuple[str, str], ...]:
        if qualname in self._seq_memo:
            return self._seq_memo[qualname]
        if qualname in active or qualname not in self.functions:
            return ()
        out: list[tuple[str, str]] = []
        for kind, name, recv in self.functions[qualname].ops:
            if kind == "op":
                out.append((name, recv))
            else:
                out.extend(self._seq(name, active | {qualname}))
        seq = tuple(out)
        self._seq_memo[qualname] = seq
        return seq

    def sequence_of(self, nodes, cls: str | None) -> tuple[tuple[str, str], ...]:
        """``(op, receiver)`` collective sequence of a statement list (e.g.
        one if-branch), transitively through local calls, without entering
        nested defs."""
        out: list[tuple[str, str]] = []
        from .rules import COLLECTIVE_HELPERS, COLLECTIVE_METHODS

        def walk(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    if isinstance(f, ast.Attribute) and f.attr in COLLECTIVE_METHODS:
                        out.append((f.attr, _receiver_name(f.value)))
                    elif isinstance(f, ast.Name) and f.id in COLLECTIVE_HELPERS:
                        out.append((f.id, _helper_receiver(child)))
                    callee = self._resolve_call(child, cls)
                    if callee is not None:
                        out.extend(self.collective_sequence(callee))
                walk(child)

        for n in nodes:
            walk(n)
        return tuple(out)

    def is_fault_path(self, qualname: str) -> bool:
        """Direct fault marker, or any local callee's (transitively)."""
        return self._fault(qualname, frozenset())

    def _fault(self, qualname: str, active: frozenset) -> bool:
        if qualname in self._fault_memo:
            return self._fault_memo[qualname]
        if qualname in active or qualname not in self.functions:
            return False
        s = self.functions[qualname]
        result = s.fault_direct or any(
            self._fault(c, active | {qualname}) for c in s.calls
        )
        self._fault_memo[qualname] = result
        return result


def _receiver_name(node: ast.AST) -> str:
    """Dotted name of a call receiver: ``self.comm`` → ``"self.comm"``.

    The name identifies *which* communicator a collective rendezvouses
    on — ordering only has to agree per communicator, so comparisons key
    on this.  Unnameable receivers collapse to ``"<expr>"``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_receiver_name(node.value)}.{node.attr}"
    return "<expr>"


def _helper_receiver(call: ast.Call) -> str:
    """Communicator identity for a free collective helper: its first
    argument by convention (``allreduce_gradients(comm, model)``)."""
    if call.args:
        return _receiver_name(call.args[0])
    return "<expr>"


def _exc_name(node: ast.AST) -> str | None:
    """``PeerFailure(...)`` / ``errors.PeerFailure`` → ``"PeerFailure"``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _flatten_tuple(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Tuple):
        return list(node.elts)
    return [node]


def module_summary(ctx) -> ModuleSummary:
    """The (cached) :class:`ModuleSummary` for a lint file context."""
    cached = getattr(ctx, "_module_summary", None)
    if cached is None:
        cached = ModuleSummary(ctx.tree, ctx.path)
        ctx._module_summary = cached
    return cached

"""Bounded model checking: exhaustive exploration of delivery schedules.

Random and hypothesis-driven schedules sample the asynchrony of Sec. 2.1;
this module *enumerates* it.  Starting from a state where a scripted set of
client operations has been issued (writes complete locally), the explorer
performs a DFS over every choice of "which channel delivers its next
message", memoizing canonical state fingerprints.  For small scenarios this
covers every execution the model permits, turning the paper's for-all-
executions theorems into machine-checked facts (within the bound):

* user-supplied invariants hold in **every reachable state**;
* every execution quiesces, and all quiescent states agree on the
  *semantic* state (vector clocks, codeword symbols and tags, history
  lists) -- confluence, the operational core of Theorems 4.4/4.5.

Servers must run with eager internal actions (``gc_interval=None``) so the
only nondeterminism is message delivery.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.server import CausalECServer, ServerConfig
from ..ec.code import LinearCode
from ..sim.manual import ManualNetwork
from ..sim.scheduler import Scheduler

__all__ = ["ExplorationResult", "StateExplorer", "explore_schedules"]


@dataclass
class _State:
    servers: list[CausalECServer]
    net: ManualNetwork


def _fork_state(state: _State) -> _State:
    """Fast structural copy of a state.

    Deep-copies exactly the containers the protocol mutates; everything
    immutable-by-convention is shared: tags, vector clocks, numpy value
    arrays (the protocol always *replaces* arrays, never mutates them in
    place), the code, the config, and queued messages.  Roughly 20x faster
    than ``copy.deepcopy`` on a 5-server state, which is what makes
    exhaustive exploration of the paper's (5,3) example feasible.
    """
    import dataclasses

    from ..core.state import Codeword, DeletionList, HistoryList, InQueue, ReadList

    net = ManualNetwork()
    net.stats = copy.copy(state.net.stats)
    net._halted = set(state.net._halted)
    net._queues = {chan: copy.copy(q) for chan, q in state.net._queues.items()}

    new_servers: list[CausalECServer] = []
    for s in state.servers:
        ns = CausalECServer.__new__(CausalECServer)
        # shared immutables
        ns.node_id = s.node_id
        ns.code = s.code
        ns.config = s.config
        ns.scheduler = s.scheduler
        ns.objects = s.objects
        ns._others = s._others
        ns._zero = s._zero
        ns.clock_dim = s.clock_dim
        # copied mutables
        ns.halted = s.halted
        ns.epoch = s.epoch
        ns.cfg_epoch = s.cfg_epoch
        ns.cfg_retired = s.cfg_retired
        ns.stats = dataclasses.replace(s.stats)
        ns.vc = s.vc
        ns.inqueue = InQueue()
        ns.inqueue._entries = list(s.inqueue._entries)
        ns.L = {}
        for x, hist in s.L.items():
            nh = HistoryList(s._zero)
            nh._items = dict(hist._items)
            ns.L[x] = nh
        ns.DelL = {}
        for x, dl in s.DelL.items():
            nd = DeletionList()
            nd._tags = {node: set(tags) for node, tags in dl._tags.items()}
            nd._max = dict(dl._max)
            ns.DelL[x] = nd
        ns.readl = ReadList()
        for entry in s.readl.entries():
            ns.readl.add(
                dataclasses.replace(entry, symbols=dict(entry.symbols))
            )
        ns.tmax = dict(s.tmax)
        ns.M = Codeword(value=s.M.value, tagvec=dict(s.M.tagvec))
        ns._opid_seq = s._opid_seq
        ns._del_sent_storing = dict(s._del_sent_storing)
        ns._del_sent_all = dict(s._del_sent_all)
        ns._read_timeouts = dict(s._read_timeouts)
        ns._client_sessions = dict(s._client_sessions)
        ns._parked = list(s._parked)
        ns.durable = None  # model checking never attaches durability
        ns._transport = None
        ns.visibility_log = list(s.visibility_log)
        ns.network = net
        net.register(ns.node_id, ns._receive)
        new_servers.append(ns)
    # synthetic client sinks
    for node_id in state.net._handlers:
        if node_id not in net._handlers:
            net.register(node_id, lambda src, msg: None)
    return _State(new_servers, net)


@dataclass
class ExplorationResult:
    states_visited: int
    executions: int  # distinct quiescent states reached (pre-dedup paths)
    truncated: bool  # hit the max_states bound
    final_semantic_states: list[tuple]
    violations: list[str] = field(default_factory=list)
    #: states with no path to a quiescent state (livelock witnesses).
    #: Only populated when exploring with check_liveness=True and the
    #: space was not truncated; must be 0 (Theorem 4.5's "eventually").
    livelocked_states: int = 0

    @property
    def confluent(self) -> bool:
        return len(set(self.final_semantic_states)) <= 1

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.confluent
            and self.livelocked_states == 0
        )


def _value_key(arr) -> tuple:
    return tuple(np.asarray(arr).ravel().tolist())


def _tag_key(tag) -> tuple:
    return (tag.ts.components, tag.client_id)


def _server_fingerprint(s: CausalECServer, semantic: bool) -> tuple:
    """Canonical digest of one server's state.

    The full (non-semantic) form must cover *every* field that can
    influence future behaviour -- a collision between genuinely different
    states would unsoundly prune reachable executions.
    """
    code = s.code
    parts = [
        s.vc.components,
        tuple(_tag_key(s.M.tagvec[x]) for x in range(code.K)),
        _value_key(s.M.value),
        tuple(
            tuple(sorted((_tag_key(t), _value_key(v)) for t, v in s.L[x].items()))
            for x in range(code.K)
        ),
    ]
    if not semantic:
        parts.append((s.cfg_epoch, s.cfg_retired))
        parts.append(tuple(_tag_key(s.tmax[x]) for x in range(code.K)))
        parts.append(
            tuple(
                tuple(
                    sorted(
                        (node, tuple(sorted(_tag_key(t) for t in tags)))
                        for node, tags in s.DelL[x]._tags.items()
                    )
                )
                for x in range(code.K)
            )
        )
        parts.append(
            tuple(_tag_key(s._del_sent_storing[x]) for x in range(code.K))
        )
        parts.append(
            tuple(_tag_key(s._del_sent_all[x]) for x in range(code.K))
        )
        parts.append(
            tuple(
                sorted(
                    (e.sender, e.obj, _tag_key(e.tag), _value_key(e.value))
                    for e in s.inqueue._entries
                )
            )
        )
        parts.append(
            tuple(
                sorted(
                    (
                        e.client_id,
                        repr(e.opid),
                        e.obj,
                        tuple(sorted((x, _tag_key(t)) for x, t in e.tagvec.items())),
                        tuple(
                            sorted(
                                (i, _value_key(w)) for i, w in e.symbols.items()
                            )
                        ),
                    )
                    for e in s.readl.entries()
                )
            )
        )
        parts.append(s._opid_seq)
    return tuple(parts)


def _message_key(msg) -> tuple:
    kind = getattr(msg, "kind", type(msg).__name__)
    bits = [kind]
    for attr in ("obj", "opid", "client_id"):
        if hasattr(msg, attr):
            bits.append(repr(getattr(msg, attr)))
    if hasattr(msg, "tag"):
        bits.append(_tag_key(msg.tag))
    if hasattr(msg, "value"):
        bits.append(_value_key(msg.value))
    if hasattr(msg, "symbol"):
        bits.append(_value_key(msg.symbol))
    for attr in ("wanted_tagvec", "requested_tags", "tagvec"):
        if hasattr(msg, attr):
            d = getattr(msg, attr)
            bits.append(tuple(sorted((k, _tag_key(t)) for k, t in d.items())))
    return tuple(bits)


def _state_fingerprint(state: _State) -> tuple:
    servers = tuple(_server_fingerprint(s, semantic=False) for s in state.servers)
    channels = tuple(
        (chan, tuple(_message_key(m) for m in q))
        for chan, q in sorted(state.net._queues.items())
        if q
    )
    return (servers, channels)


def _semantic_fingerprint(state: _State) -> tuple:
    return tuple(_server_fingerprint(s, semantic=True) for s in state.servers)


class StateExplorer:
    """DFS over all FIFO-respecting delivery orders of a scripted scenario."""

    def __init__(
        self,
        code: LinearCode,
        max_states: int = 50_000,
        invariant: Callable[[list[CausalECServer]], None] | None = None,
        check_liveness: bool = False,
    ):
        self.code = code
        self.max_states = max_states
        self.invariant = invariant
        self.check_liveness = check_liveness

    def initial_state(self) -> _State:
        scheduler = Scheduler()
        net = ManualNetwork()
        servers = [
            CausalECServer(
                i, scheduler, net, self.code, ServerConfig(gc_interval=None)
            )
            for i in range(self.code.N)
        ]
        # sink handlers for the synthetic writer clients (one per server)
        for i in range(self.code.N):
            net.register(1000 + i, lambda src, msg: None)
        return _State(servers, net)

    def issue_write(self, state: _State, server: int, obj: int, value) -> None:
        """Issue a write directly at a server (local per Property I)."""
        from ..core.messages import WriteRequest

        msg = WriteRequest(("x", server, obj, _value_key(value)), obj,
                           np.asarray(value))
        msg.size_bits = 0.0
        # the client id doubles as the writer identity in the tag
        state.servers[server].on_message(1000 + server, msg)
        self._drain_client_channels(state)

    def issue_read(self, state: _State, server: int, obj: int, rid=0) -> None:
        """Issue a read at a server; its val_inq traffic joins the explored
        message space, so read termination (Theorem 4.3) is itself model
        checked: with all servers alive, no terminal state may retain a
        pending external read."""
        from ..core.messages import ReadRequest

        msg = ReadRequest(("read", server, obj, rid), obj)
        msg.size_bits = 0.0
        state.servers[server].on_message(1000 + server, msg)
        self._drain_client_channels(state)

    def _drain_client_channels(self, state: _State) -> None:
        for (src, dst), q in list(state.net._queues.items()):
            if dst >= self.code.N and q:
                q.clear()  # acks/read-returns to synthetic clients

    def explore(self, state: _State) -> ExplorationResult:
        visited: set[tuple] = set()
        finals: list[tuple] = []
        violations: list[str] = []
        # edges recorded for the liveness (reach-quiescence) analysis
        edges: dict[tuple, list[tuple]] = {}
        terminal_fps: set[tuple] = set()
        truncated = False
        executions = 0
        stack = [state]
        while stack:
            if len(visited) >= self.max_states:
                truncated = True
                break
            cur = stack.pop()
            fp = _state_fingerprint(cur)
            if fp in visited:
                continue
            visited.add(fp)
            if self.invariant is not None:
                try:
                    self.invariant(cur.servers)
                except AssertionError as exc:  # pragma: no cover - on bugs
                    violations.append(str(exc))
                    continue
            for s in cur.servers:
                if s.stats.error1_events or s.stats.error2_events:
                    violations.append(
                        f"re-encoding error at server {s.node_id}"
                    )
            chans = [
                c for c in cur.net.channels()
                if c[0] < self.code.N and c[1] < self.code.N
            ]
            if not chans:
                executions += 1
                finals.append(_semantic_fingerprint(cur))
                terminal_fps.add(fp)
                # Theorem 4.3 (all servers alive): quiescence implies no
                # pending reads -- external or internal
                for s in cur.servers:
                    if len(s.readl):
                        violations.append(
                            f"terminal state retains pending reads at "
                            f"server {s.node_id} (read liveness)"
                        )
                continue
            successors = []
            for chan in chans:
                nxt = _fork_state(cur)
                nxt.net.deliver(*chan)
                self._drain_client_channels(nxt)
                if self.check_liveness:
                    successors.append(_state_fingerprint(nxt))
                stack.append(nxt)
            if self.check_liveness:
                edges[fp] = successors
        livelocked = 0
        if self.check_liveness and not truncated:
            livelocked = self._count_livelocked(edges, terminal_fps, visited)
        return ExplorationResult(
            states_visited=len(visited),
            executions=executions,
            truncated=truncated,
            final_semantic_states=finals,
            violations=violations,
            livelocked_states=livelocked,
        )

    @staticmethod
    def _count_livelocked(
        edges: dict[tuple, list[tuple]],
        terminals: set[tuple],
        visited: set[tuple],
    ) -> int:
        """States that cannot reach any quiescent state (reverse BFS)."""
        reverse: dict[tuple, list[tuple]] = {}
        for src, dsts in edges.items():
            for dst in dsts:
                reverse.setdefault(dst, []).append(src)
        reachable = set(terminals)
        frontier = list(terminals)
        while frontier:
            cur = frontier.pop()
            for prev in reverse.get(cur, ()):
                if prev not in reachable:
                    reachable.add(prev)
                    frontier.append(prev)
        return len(visited - reachable)


def explore_schedules(
    code: LinearCode,
    writes: list[tuple[int, int, object]],
    max_states: int = 50_000,
    invariant: Callable | None = None,
    check_liveness: bool = False,
) -> ExplorationResult:
    """Explore every delivery schedule after issuing ``writes``.

    ``writes`` is a list of (server, obj, value) issued up-front in order
    (each completes locally before the next -- Property I).
    """
    explorer = StateExplorer(
        code, max_states=max_states, invariant=invariant,
        check_liveness=check_liveness,
    )
    state = explorer.initial_state()
    for server, obj, value in writes:
        explorer.issue_write(state, server, obj, value)
    return explorer.explore(state)

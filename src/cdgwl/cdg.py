"""Event-sourced continuous-time dynamic graphs.

A dynamic graph is a start graph plus a finite sequence of timestamped
events (node/edge addition, deletion, attribute change) at strictly
increasing times.  Snapshots materialize the graph state at any timestamp
by replaying the stream up to and including that time.  All values are
treated as immutable after construction and every operation is a pure
function returning fresh values.

Graphs are undirected and simple: no self-loops, no parallel edges, and
an undirected edge is keyed by its sorted endpoint pair.  Attributes are
fixed-length tuples of finite floats compared bitwise, never with a
tolerance.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .errors import (
    AddExistingError,
    AttrChangeMissingError,
    DeleteMissingError,
    EdgeEndpointMissingError,
    InvalidCdgError,
    UnknownTimestampError,
)

NODE = "node"
EDGE = "edge"
ADD = "add"
DELETE = "delete"
ATTR_CHANGE = "attr"

ITEM_KINDS = (NODE, EDGE)
EVENT_KINDS = (ADD, DELETE, ATTR_CHANGE)


def attr_bytes(attr):
    """Canonical byte encoding of an attribute vector (exact, bitwise)."""
    return struct.pack(f"<{len(attr)}d", *attr)


def edge_key(u, v):
    """Normalize an undirected edge to its sorted endpoint pair."""
    if u == v:
        raise ValueError(f"self-loop at {u!r} not allowed")
    try:
        return (u, v) if u <= v else (v, u)
    except TypeError:
        raise ValueError(f"edge ({u!r}, {v!r}) mixes node id types") from None


def _checked_attr(attr):
    vec = tuple(map(float, attr))
    if not vec:
        raise ValueError("attribute vectors must have at least one component")
    if not all(map(math.isfinite, vec)):
        raise ValueError(f"attribute components must be finite, got {vec}")
    return vec


@dataclass(frozen=True, init=False)
class Event:
    """One timestamped change to the graph.

    ``item`` selects nodes or edges, ``kind`` the operation.  Delete events
    carry no attribute; add and attribute-change events require one.  The
    time is stored as a float, an edge key as its sorted endpoint pair and an
    attribute as a tuple of floats; each field is checked and set once.
    """

    time: float
    item: str
    key: object
    kind: str
    attr: tuple | None = None

    def __init__(self, time, item, key, kind, attr=None):
        if item not in ITEM_KINDS:
            raise ValueError(f"unknown item kind {item!r}")
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        t = float(time)
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"event time must be finite and non-negative, got {time!r}")
        if item == EDGE:
            u, v = key
            key = edge_key(u, v)
        if kind == DELETE:
            if attr is not None:
                raise ValueError("delete events carry no attribute")
        else:
            if attr is None:
                raise ValueError(f"{kind} events require an attribute")
            attr = _checked_attr(attr)
        # frozen, so the checked fields go straight into the instance dict
        vars(self).update(time=t, item=item, key=key, kind=kind, attr=attr)


@dataclass(frozen=True)
class StartGraph:
    """Initial attributed graph; endpoint pairs are normalized on build."""

    nodes: dict
    edges: dict

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", {v: _checked_attr(a) for v, a in self.nodes.items()}
        )
        object.__setattr__(
            self, "edges", {edge_key(*k): _checked_attr(a) for k, a in self.edges.items()}
        )


@dataclass(frozen=True)
class Snapshot:
    """Graph state at one timestamp: node and edge attribute maps."""

    time: float
    nodes: dict
    edges: dict


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; ``index`` is the offending event position."""

    index: int | None
    message: str

    def __str__(self):
        where = "start graph" if self.index is None else f"event {self.index}"
        return f"{where}: {self.message}"


def _apply(nodes, edges, event):
    """Apply one event to a node map and an edge map, in place.

    The one event rule: node deletion cascades to incident edges.  Raises,
    leaving both maps as they were, when the event does not apply cleanly:
    duplicate add, missing delete/attr-change target, or a dangling edge
    endpoint.  Times are the caller's to check.
    """
    key, kind = event.key, event.kind
    items = nodes if event.item == NODE else edges
    if kind == ADD:
        if key in items:
            raise AddExistingError(f"{event.item} {key!r} already present")
        if items is edges:
            for end in key:
                if end not in nodes:
                    raise EdgeEndpointMissingError(f"endpoint {end!r} missing for edge {key!r}")
    elif key not in items:
        missing = DeleteMissingError if kind == DELETE else AttrChangeMissingError
        raise missing(f"{event.item} {key!r} not present")
    if kind == DELETE:
        del items[key]
        if items is nodes:
            for pair in [p for p in edges if key in p]:
                del edges[pair]
    else:
        items[key] = event.attr


def apply_event(snapshot, event):
    """Return a new snapshot with one event applied.

    The event goes through the same rule as ``validate_stream``'s replay,
    on copies of the snapshot's maps, so ``snapshot`` is never changed.
    Node deletion cascades to incident edges.  Raises when the event is not
    after the snapshot's time or does not apply cleanly: duplicate add,
    missing delete/attr-change target, or a dangling edge endpoint.
    """
    if event.time <= snapshot.time:
        raise ValueError(
            f"event time {event.time} not after snapshot time {snapshot.time}"
        )
    nodes = dict(snapshot.nodes)
    edges = dict(snapshot.edges)
    _apply(nodes, edges, event)
    return Snapshot(time=event.time, nodes=nodes, edges=edges)


def _collect_dims(start, events):
    for a in start.nodes.values():
        yield None, a
    for a in start.edges.values():
        yield None, a
    for i, e in enumerate(events):
        if e.attr is not None:
            yield i, e.attr


def validate_stream(start, events, dim=None):
    """Check a raw (start graph, event list) pair; return a diagnostic list.

    An empty list means every event applies cleanly in order, timestamps
    strictly increase from the start state at 0.0, attribute dimensions
    agree, and node ids do not mix strings with integers (so the universe
    sorts).  The stream is replayed once, in place, into one node map and
    one edge map by ``apply_event``'s rule; an event that fails leaves them
    as they were, so each diagnostic is the one a replay of copies gives.
    """
    problems = []
    ids = [(None, v) for v in start.nodes]
    ids += [(i, e.key) for i, e in enumerate(events) if e.item == NODE and e.kind == ADD]
    mixed = [(i, v) for i, v in ids if isinstance(v, str) != isinstance(ids[0][1], str)]
    if mixed:
        idx, v = mixed[0]
        problems.append(Diagnostic(idx, f"node ids mix strings and integers: {v!r}"))
    for pair in start.edges:
        for end in pair:
            if end not in start.nodes:
                problems.append(Diagnostic(None, f"edge {pair!r} endpoint {end!r} missing"))
    for idx, a in _collect_dims(start, events):
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            problems.append(Diagnostic(idx, f"attribute dimension {len(a)} != {dim}"))
    prev_t = 0.0
    nodes, edges = dict(start.nodes), dict(start.edges)
    for i, e in enumerate(events):
        if e.time <= prev_t:
            problems.append(
                Diagnostic(i, f"timestamp {e.time} not after previous timestamp {prev_t}")
            )
            continue
        prev_t = e.time
        try:
            _apply(nodes, edges, e)
        except (
            AddExistingError,
            DeleteMissingError,
            AttrChangeMissingError,
            EdgeEndpointMissingError,
        ) as err:
            problems.append(Diagnostic(i, str(err)))
    return problems


@dataclass(frozen=True)
class Cdg:
    """A validated dynamic graph: start state plus ordered events.

    The start graph occupies timestamp 0.0; each event occupies one
    strictly later timestamp.  These three fields are exactly what the wire
    format carries, so ``cdg_from_jsonl(cdg_to_jsonl(g)) == g``.
    Construction replays the stream once, in place (``validate_stream``),
    and raises ``InvalidCdgError`` with diagnostics if any event fails to
    apply.
    """

    start: StartGraph
    events: tuple = ()
    dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.dim is None:
            for _, a in _collect_dims(self.start, self.events):
                object.__setattr__(self, "dim", len(a))
                break
            else:
                raise ValueError(
                    "attribute dimension cannot be inferred from an attribute-free stream"
                )
        problems = validate_stream(self.start, self.events, dim=self.dim)
        if problems:
            raise InvalidCdgError(problems)


def timestamps(cdg):
    """All timestamps of the stream: 0.0 for the start state, then one per event."""
    return (0.0,) + tuple(e.time for e in cdg.events)


def universe(cdg):
    """Every node id that ever exists, sorted: start nodes plus added ids."""
    seen = set(cdg.start.nodes)
    for e in cdg.events:
        if e.item == NODE and e.kind == ADD:
            seen.add(e.key)
    return tuple(sorted(seen))


def snapshots(cdg):
    """Snapshots at every timestamp, in order, by replaying the stream."""
    out = [Snapshot(time=0.0, nodes=dict(cdg.start.nodes), edges=dict(cdg.start.edges))]
    for e in cdg.events:
        out.append(apply_event(out[-1], e))
    return out


def replay(cdg, t):
    """State at timestamp ``t`` (inclusive of the event at ``t``).

    ``t`` must be 0.0 or one of the event times; anything else raises
    ``UnknownTimestampError``.
    """
    times = timestamps(cdg)
    if t not in times:
        raise UnknownTimestampError(f"{t} is not a timestamp of this stream")
    return snapshots(cdg)[times.index(t)]


def adjacency(snapshot):
    """Adjacency map: node id -> list of (neighbor id, edge attribute)."""
    adj = {v: [] for v in snapshot.nodes}
    for (a, b), w in snapshot.edges.items():
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj

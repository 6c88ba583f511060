"""Seeded random event streams for tests and experiments.

Streams are built forward: a start graph, then one applicable event per
timestamp, with the live state tracked so every event is legal by
construction.  Disconnected instances split the id space into two halves
that never share an edge and never lose their last node, which keeps at
least two components alive at every timestamp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cdg import (
    ADD,
    ATTR_CHANGE,
    Cdg,
    DELETE,
    EDGE,
    Event,
    NODE,
    StartGraph,
    _apply,
    _collect_dims,
    edge_key,
    universe,
)
from .errors import GenerationExhaustedError

# Chance that a node id is alive in the start graph.
P_START_NODE = 0.8


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one random stream; all sizes are upper bounds."""

    n_nodes: int = 5
    n_events: int = 8
    dim: int = 1
    attr_values: int = 4
    p_start_edge: float = 0.5
    ensure_disconnected: bool = False

    def __post_init__(self):
        for name, least in (("n_nodes", 1), ("n_events", 0), ("dim", 1), ("attr_values", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if not 0.0 <= self.p_start_edge <= 1.0:  # NaN fails too
            raise ValueError(f"p_start_edge must lie in [0, 1], got {self.p_start_edge}")


def _alphabet(config):
    return [tuple((j + 1) / 2.0 for _ in range(config.dim)) for j in range(config.attr_values)]


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _build_start(rng, config, ids, half, alphabet):
    nodes = {}
    for v in ids:
        if rng.random() < P_START_NODE:
            nodes[v] = _pick(rng, alphabet)
    if config.ensure_disconnected:
        for parity in (0, 1):
            side = [v for v in ids if half[v] == parity]
            if side and not any(v in nodes for v in side):
                nodes[_pick(rng, side)] = _pick(rng, alphabet)
    edges = {}
    for u, v in itertools.combinations(sorted(nodes), 2):
        if config.ensure_disconnected and half[u] != half[v]:
            continue
        if rng.random() < config.p_start_edge:
            edges[(u, v)] = _pick(rng, alphabet)
    return StartGraph(nodes, edges)


def _drawable(split, n_ids, nodes, edges, per_half, recolor):
    """The event kinds that have a key now, as ``(item, kind)`` in draw order.

    Decided from counts alone: a split deletes only from a half holding two
    live nodes, and links only within a half, so the edges present are a
    subset of the pairs possible and an edge can be added while they are fewer.
    Attribute changes need two values.
    """
    if split:
        deletable = per_half[0] > 1 or per_half[1] > 1
        pairs = sum(c * (c - 1) // 2 for c in per_half)
    else:
        deletable = bool(nodes)
        pairs = len(nodes) * (len(nodes) - 1) // 2
    table = (
        (NODE, ADD, len(nodes) < n_ids),
        (NODE, DELETE, deletable),
        (EDGE, ADD, len(edges) < pairs),
        (EDGE, DELETE, bool(edges)),
        (NODE, ATTR_CHANGE, recolor and bool(nodes)),
        (EDGE, ATTR_CHANGE, recolor and bool(edges)),
    )
    return [(item, kind) for item, kind, ok in table if ok]


def _keys(item, kind, split, ids, half, nodes, edges, per_half):
    """The keys of one drawable kind, in draw order: ids for a node add,
    sorted live nodes or node pairs otherwise."""
    if item == EDGE and kind != ADD:
        return sorted(edges)
    if item == NODE and kind == ADD:
        return [v for v in ids if v not in nodes]
    live = sorted(nodes)
    if kind == ADD:
        return [
            (u, v)
            for u, v in itertools.combinations(live, 2)
            if (u, v) not in edges and not (split and half[u] != half[v])
        ]
    if kind == DELETE and split:
        return [v for v in live if per_half[half[v]] > 1]
    return live


def generate(config, seed=0):
    """One random valid stream, drawn once.

    ``seed`` may be an int, a ``numpy`` SeedSequence, or a Generator.

    Each event draws its kind from the kinds that have a key, then a key
    from that kind's list, which alone is built.

    A config whose streams can never draw an event raises
    ``GenerationExhaustedError`` before any draw.  With ``n_events >= 1``
    that is exactly the split config with two node ids and one attribute
    value.  Every other config has a drawable event at every timestamp.
    Without a split, some id is dead (add) or some node is live (delete).
    With a split, every half keeps a live node, so a second attribute value
    allows a change; and with three or more ids one half holds two, which
    are either both live (delete) or not (add).  Two ids are one per half,
    each live for good: no add, delete or edge.
    """
    rng = np.random.default_rng(seed)
    ids = [f"n{i}" for i in range(config.n_nodes)]
    half = {v: i % 2 for i, v in enumerate(ids)}
    split = config.ensure_disconnected
    if split and config.n_nodes < 2:
        raise GenerationExhaustedError("disconnected streams need at least 2 node ids")
    if split and config.n_nodes == 2 and config.attr_values == 1 and config.n_events:
        raise GenerationExhaustedError(
            "no event can ever be drawn: 2 node ids split into halves of one node each "
            "can be neither added, deleted nor linked, and 1 attribute value allows no change"
        )
    alphabet = _alphabet(config)
    recolor = len(alphabet) > 1
    start = _build_start(rng, config, ids, half, alphabet)
    nodes, edges = dict(start.nodes), dict(start.edges)
    per_half = [0, 0]
    for v in nodes:
        per_half[half[v]] += 1
    events = []
    t = 0.0
    for _ in range(config.n_events):
        t += float(_pick(rng, [0.5, 1.0, 1.5]))
        item, kind = _pick(rng, _drawable(split, len(ids), nodes, edges, per_half, recolor))
        key = _pick(rng, _keys(item, kind, split, ids, half, nodes, edges, per_half))
        attr = None
        if kind != DELETE:
            old = (nodes if item == NODE else edges).get(key)
            attr = _pick(rng, [a for a in alphabet if a != old])
        event = Event(t, item, key, kind, attr)
        _apply(nodes, edges, event)
        if item == NODE and kind != ATTR_CHANGE:
            per_half[half[key]] += 1 if kind == ADD else -1
        events.append(event)
    return Cdg(start, tuple(events), dim=config.dim)


def relabel_cdg(cdg_, node_map, attr_map=None):
    """Rewrite node ids (and optionally attribute values) everywhere.

    ``node_map`` must cover the universe and keep its ids apart; ``attr_map``
    must keep the stream's attribute values apart, a value it leaves out
    mapping to itself.  Otherwise raises ``ValueError`` naming the missing id
    or the two ids (or values) that would merge.
    """

    def m(a):
        if a is None or attr_map is None:
            return a
        return attr_map.get(a, a)

    us = universe(cdg_)
    missing = set(us) - set(node_map)
    if missing:
        raise ValueError(f"node_map misses node {min(missing)!r}")
    attrs = sorted({a for _, a in _collect_dims(cdg_.start, cdg_.events)})
    for name, image, keys in (("node_map", node_map.get, us), ("attr_map", m, attrs)):
        seen = {}
        for k in keys:
            other = seen.setdefault(image(k), k)
            if other != k:
                raise ValueError(f"{name} maps both {other!r} and {k!r} to {image(k)!r}")
    start = StartGraph(
        {node_map[v]: m(a) for v, a in cdg_.start.nodes.items()},
        {
            edge_key(node_map[u], node_map[v]): m(a)
            for (u, v), a in cdg_.start.edges.items()
        },
    )
    events = []
    for e in cdg_.events:
        key = node_map[e.key] if e.item == NODE else (node_map[e.key[0]], node_map[e.key[1]])
        events.append(Event(e.time, e.item, key, e.kind, m(e.attr)))
    return Cdg(start, tuple(events), dim=cdg_.dim)


def generate_isomorphic_pair(config, seed=0, rename_attrs=False):
    """A stream plus an isomorphic copy under a seeded node permutation.

    With ``rename_attrs`` the copy also rewrites every attribute value
    injectively into a disjoint range, giving a pair that is isomorphic
    under attribute renaming but not under attribute identity.  Returns
    (original, copy, node mapping).
    """
    rng = np.random.default_rng(seed)
    g1 = generate(config, rng)
    us = universe(g1)
    perm = list(us)
    rng.shuffle(perm)
    node_map = dict(zip(us, perm))
    attr_map = None
    if rename_attrs:
        values = sorted({a for _, a in _collect_dims(g1.start, g1.events)})
        attr_map = {a: tuple(1000.0 + i for _ in a) for i, a in enumerate(values)}
    return g1, relabel_cdg(g1, node_map, attr_map), node_map


def two_triangles():
    """Six uniformly attributed nodes forming two disjoint triangles."""
    ids = [f"n{i}" for i in range(6)]
    nodes = {v: (1.0,) for v in ids}
    edges = {
        e: (1.0,)
        for e in [
            ("n0", "n1"), ("n1", "n2"), ("n0", "n2"),
            ("n3", "n4"), ("n4", "n5"), ("n3", "n5"),
        ]
    }
    return Cdg(StartGraph(nodes, edges))


def six_cycle():
    """Six uniformly attributed nodes forming one cycle."""
    ids = [f"n{i}" for i in range(6)]
    nodes = {v: (1.0,) for v in ids}
    edges = {(ids[i], ids[(i + 1) % 6]): (1.0,) for i in range(6)}
    return Cdg(StartGraph(nodes, edges))

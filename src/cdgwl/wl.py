"""Attributed color refinement on snapshots and its temporal extension.

Refinement replaces the idealized injective hash with a canonical key plus
an append-only dictionary that assigns compact integer ids.  Color 0 is
reserved for nodes that are not alive in a snapshot and is never assigned
to a key.  One dictionary defines one comparison session: every id minted
in a session is directly comparable, and ids from different sessions are
not.

The temporal test runs refinement independently per timestamp but jointly
over the disjoint union of all compared snapshots, so colors of different
graphs at the same timestamp line up by construction.  A node's color
trajectory is the tuple of its per-timestamp final colors.

Every per-timestamp test in the package (color and tree trajectories, the
correspondence and depth-bound certifications, symbolic network states)
walks timestamps through one driver, ``_joint_timeline``: it checks the
graphs, replays each once, and merges one timestamp's snapshots at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cdg import Snapshot, adjacency, attr_bytes, edge_key, snapshots, universe
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    TimestampMismatchError,
)

BOTTOM = 0

BIJECTION = "bijection"
EXISTENCE = "existence"


class ColorDictionary:
    """Injective, append-only mapping from canonical keys to ids >= 1."""

    def __init__(self):
        self._ids = {}
        self._next = 1

    def id_of(self, key):
        got = self._ids.get(key)
        if got is None:
            got = self._next
            self._ids[key] = got
            self._next += 1
        return got

    def __len__(self):
        return len(self._ids)


def _refine(snapshot, universe_, dictionary, rounds, tree=False, until_stable=False, first=None):
    """Levels 0..``rounds`` of attributed refinement, for colors and trees.

    Level 0 keys a live node on its attribute; level d+1 on a self part plus
    the sorted multiset of (edge attribute, neighbor level-d id) pairs.  The
    self part is the level-d color for refinement (tags ``c0``/``c``) and the
    node's attribute for trees (``t0``/``t``); dead nodes carry 0.  ``first``
    replaces level 0; ``until_stable`` stops at the first level that leaves
    the partition unchanged.  Attributes are encoded once per call, and once
    the partition is stable each class is keyed once (see ``trees``).
    """
    order = sorted(universe_)
    nodes = snapshot.nodes
    own = [attr_bytes(nodes[v]) if v in nodes else None for v in order]
    id_of = dictionary.id_of
    tag = "t" if tree else "c"
    if first is None:
        first = {v: id_of((tag + "0", b)) if b is not None else BOTTOM for v, b in zip(order, own)}
    ids = [first[v] for v in order]
    levels = [dict(zip(order, ids))]
    if rounds < 1:
        return levels
    adj = adjacency(snapshot)
    pos = {v: i for i, v in enumerate(order)}
    nbrs = [[(attr_bytes(w), pos[u]) for u, w in adj[v]] if v in nodes else None for v in order]

    def step(prev, nbrs, own):
        return [
            id_of((tag, own[i] if tree else prev[i], tuple(sorted([(w, prev[j]) for w, j in nb]))))
            if nb is not None
            else BOTTOM
            for i, nb in enumerate(nbrs)
        ]

    while len(levels) <= rounds:
        prev, ids = ids, step(ids, nbrs, own)
        levels.append(dict(zip(order, ids)))
        if len(set(ids)) == len(set(prev)):
            break
    if until_stable or len(levels) > rounds:
        return levels
    # Stable: step the classes instead, each keyed by its smallest member.
    smallest = {}
    for i, c in enumerate(ids):
        smallest.setdefault(c, i)
    slot = {c: k for k, c in enumerate(smallest)}
    slot_of = [slot[c] for c in ids]
    members = list(smallest.values())
    class_nbrs = [
        None if nbrs[i] is None else [(w, slot_of[j]) for w, j in nbrs[i]] for i in members
    ]
    class_own, class_ids = [own[i] for i in members], list(smallest)
    while len(levels) <= rounds:
        class_ids = step(class_ids, class_nbrs, class_own)
        levels.append(dict(zip(order, map(class_ids.__getitem__, slot_of))))
    return levels


def awl_init(snapshot, universe_, dictionary):
    """Iteration-0 colors: attribute color for live nodes, 0 otherwise."""
    return _refine(snapshot, universe_, dictionary, 0)[0]


def awl_step(snapshot, prev, dictionary):
    """One refinement round.

    A live node's new color keys on its previous color plus the multiset of
    (edge attribute, neighbor color) pairs, sorted canonically.  Nodes that
    are not alive keep color 0.
    """
    return _refine(snapshot, prev, dictionary, 1, first=prev)[1]


def partition_of(coloring):
    """Relabeling-invariant view of a coloring: frozenset of color classes."""
    cells = {}
    for v, c in coloring.items():
        cells.setdefault(c, []).append(v)
    return frozenset(frozenset(cell) for cell in cells.values())


def awl_stable(snapshot, universe_, dictionary):
    """Refine until the induced partition stops changing.

    Returns the final coloring and the number of rounds executed; the
    partition provably stabilizes within ``len(universe_)`` rounds.
    """
    levels = _refine(snapshot, universe_, dictionary, len(universe_), until_stable=True)
    return levels[-1], len(levels) - 1


def merged_snapshot(snaps, universes):
    """Disjoint union of snapshots; node ids are tagged with graph index."""
    nodes, edges = {}, {}
    for gi, s in enumerate(snaps):
        for v, a in s.nodes.items():
            nodes[(gi, v)] = a
        for (u, v), a in s.edges.items():
            edges[edge_key((gi, u), (gi, v))] = a
    t = snaps[0].time if snaps else 0.0
    joint = [(gi, v) for gi, us in enumerate(universes) for v in us]
    return Snapshot(time=t, nodes=nodes, edges=edges), joint


def check_comparable(cdgs):
    if not cdgs:
        raise EmptyInputError("no graphs given")
    dims = {g.dim for g in cdgs}
    if len(dims) > 1:
        raise DimensionMismatchError(f"attribute dimensions differ: {sorted(dims)}")
    counts = {len(g.events) for g in cdgs}
    if len(counts) > 1:
        raise TimestampMismatchError(f"timestamp counts differ: {sorted(counts)}")


def refine_at_depth(snapshot, universe_, dictionary, depth):
    """Colors after exactly ``depth`` rounds (depth 0 = initial colors)."""
    return _refine(snapshot, universe_, dictionary, depth)[-1]


def _colors_at(snapshot, universe_, dictionary, depth):
    """Colors at stabilization (``depth=None``) or after exactly ``depth`` rounds."""
    if depth is None:
        return awl_stable(snapshot, universe_, dictionary)[0]
    return refine_at_depth(snapshot, universe_, dictionary, depth)


def _joint_timeline(cdgs):
    """The graphs' universes, plus one lazy step per timestamp.

    Checks the graphs at once (so an empty list raises here), replays each
    graph once, and yields per timestamp ``(snaps, union, joint)``: the
    graphs' snapshots, their disjoint union and its tagged node list.  Only
    one union is alive at a time.
    """
    check_comparable(cdgs)
    universes = [universe(g) for g in cdgs]
    seqs = [snapshots(g) for g in cdgs]
    return universes, ((snaps, *merged_snapshot(snaps, universes)) for snaps in zip(*seqs))


def _joint_trajectories(steps, ids_at):
    """Trajectories of the id maps that ``ids_at(union, joint)`` returns per step.

    Returns, for each returned map in order, {tagged node: tuple of ids}.
    """
    joint, columns = (), []
    for _snaps, snap, joint in steps:
        columns.append([[ids[t] for t in joint] for ids in ids_at(snap, joint)])
    return tuple(dict(zip(joint, zip(*col))) for col in zip(*columns))


def _by_graph(tagged, universes):
    """Split a map keyed by (graph index, node) into one node map per graph."""
    return [{v: tagged[(gi, v)] for v in us} for gi, us in enumerate(universes)]


def cwl(cdgs, depth=None, dictionary=None):
    """Color trajectories for one or more dynamic graphs, jointly refined.

    ``depth=None`` refines each timestamp to joint stabilization; an integer
    runs exactly that many rounds.  Returns one map per input graph from
    node id to its trajectory tuple (color 0 marks timestamps where the
    node is not alive).
    """
    if dictionary is None:
        dictionary = ColorDictionary()
    universes, steps = _joint_timeline(cdgs)
    (colors,) = _joint_trajectories(
        steps, lambda snap, joint: [_colors_at(snap, joint, dictionary, depth)]
    )
    return _by_graph(colors, universes)


def node_cwl_equivalent(traj_a, traj_b):
    """Entrywise trajectory equality; lengths must match."""
    if len(traj_a) != len(traj_b):
        raise LengthMismatchError(f"trajectory lengths differ: {len(traj_a)} vs {len(traj_b)}")
    return traj_a == traj_b


@dataclass(frozen=True)
class GraphComparison:
    equivalent: bool
    trajectories: tuple
    first_divergence: int | None


def compare_graphs(g1, g2, mode=BIJECTION, dictionary=None):
    """Graph-level verdict over a shared refinement session.

    ``bijection`` mode demands equal trajectory multisets, ``existence``
    mode only equal trajectory sets.  ``first_divergence`` is the earliest
    timestamp index whose per-timestamp color statistics already differ,
    or None when the difference only shows across whole trajectories.
    """
    if mode not in (BIJECTION, EXISTENCE):
        raise ValueError(f"unknown comparison mode {mode!r}")
    t1, t2 = cwl([g1, g2], dictionary=dictionary)
    summary = Counter if mode == BIJECTION else set
    equivalent = summary(t1.values()) == summary(t2.values())
    diverged = (
        i for i in range(len(g1.events) + 1)
        if summary(tr[i] for tr in t1.values()) != summary(tr[i] for tr in t2.values())
    )
    first = None if equivalent else next(diverged, None)
    return GraphComparison(equivalent, (t1, t2), first)


def graph_cwl_equivalent(g1, g2, mode=BIJECTION, dictionary=None):
    return compare_graphs(g1, g2, mode=mode, dictionary=dictionary).equivalent

"""Unfolding trees of snapshot nodes and their canonical signatures.

The depth-d unfolding tree of a live node carries the node's attribute at
the root and, below it, one subtree per incident edge (a multiset: walks
may revisit nodes).  Nodes that are not alive unfold to the empty tree.

Explicit trees grow exponentially with depth, so equality checking runs on
signatures instead: a bottom-up refinement assigns compact ids per depth
via the shared color dictionary, mirroring how color refinement compacts
hashes.  Explicit materialization stays available as a cross-check oracle
for small depths.

Signatures and colors come from one kernel (``wl._refine``).  Depth d+1
refines depth d, so once one level leaves the partition unchanged (the
stable level) every deeper level does too, and the level before it already
tells the stable classes apart.  The stable level usually comes within a
few levels, far short of the decisive depth ``2n - 1``.  From there a full
recompute keys each stable class on its smallest member, classes in sorted
order, and only hits the dictionary for the other members.  The kernel
(``wl._stable_tail``) goes further: it stops keying a component of the
class graph once its later ids are known.  Three facts carry this, (a),
(b) and (d) below; (c) and (e) carry the timeline.  Ids name trees: a level-d
key holds level-(d-1) ids, so by induction two non-isolated nodes share a
level-d id exactly when their depth-d trees are equal, and each such id
belongs to one depth.

(a) Fresh ids stay fresh.  Let a non-isolated class get, at a level d at or
past the stable level, an id no earlier key had.  Its depth-(d+1) tree
truncates to its depth-d tree; had it been keyed before, by an earlier call
or by another class of this one, its truncation would have been keyed
before too (or the two classes would be one).  So its level-(d+1) key is
new, and likewise at every later level.  A color key holds the class's own
previous id, so the same holds for colors, isolated classes included.  A
fresh class makes its neighbours fresh one level later: their keys hold its
new id.  So once a whole component is fresh, every later level mints
exactly one id per fresh class, in class order, and nothing else of it
mints; (d) extends this to components that are only partly fresh.

(b) Components that only hit follow an earlier chain.  Suppose every class
c of a component has, at a level d at or past both stable levels, the id a
class pi(c) of an earlier call held at level d.  Equal ids mean equal keys:
equal attributes (or previous colors) and equal multisets of (edge
attribute, level-(d-1) id) over the neighbours.  The neighbours' ids match
under pi one level down too, and the earlier call's level-(d-1) ids tell
its classes apart, so pi maps the neighbour multiset of c onto that of
pi(c).  Hence c and pi(c) have equal level-(d+1) keys, and by induction c
holds pi(c)'s id at every level the earlier call reached.  The kernel
follows only an earlier call at least as deep as its own, by copying its
ids; a component whose holder is shallower is keyed instead, which mints
and hits the same ids as a full recompute.  An isolated tree class keys on
(attribute, ()) at every level from 1 on and keeps one id.

(c) Only what changed is keyed again.  Along the joint timeline two
consecutive unions differ only at the touched nodes: those whose attribute
or neighbour list an event replaced (an event's node, both ends of a changed
edge, every neighbour of a deleted node).  Let the previous union have keyed
levels r-1 and r in this dictionary.  A node's level-r key reads its
attribute (trees) or its own level-(r-1) id (colors), and the edge
attributes and level-(r-1) ids of its current neighbours.  Take a node that
is not touched, whose current neighbours all hold the level-(r-1) ids they
held in the previous union, and, for colors, that holds its own.  Its
attribute and edges are as before, so every part of its level-r key is as
before: the key is the one the previous union keyed for it, and a full
recompute would hit the id it held then.  The kernel copies that id and keys
only the other nodes, the frontier, in position order.  Level 0 reads only
attributes, so only touched nodes can change there.  By induction on r, an
id can differ from the previous union's only at a frontier node, so the
changed ids are found among the frontier's: level r's frontier is the
touched nodes plus the current neighbours of the level-(r-1) frontier nodes
whose id changed (for colors, those nodes too).  It lies within r hops of a
touched node, and stops short of that ball where no id changes: an edge
added between two nodes of one attribute changes no level-0 id, so level 1
keys only its two ends.  A copied id is an old one, like a hit, so only
frontier nodes can mint, they mint in the order a full recompute does, and
the freshness test of (a) (an id at least the level's first mint) still
holds.  A level the previous union did not key is keyed in full.

(d) The freshness front.  Let a component have, at a level s at or past
the stable level, fresh classes F_0 and repeated ones, and let one earlier
call, at least as deep as this one, hold every repeated id: each repeated
class c holds at level s the id its class pi(c) held there.  Let F_j be the
classes at most j hops from F_0.

- A repeated class more than j hops from F_0 holds pi(c)'s id at level
  s+j.  For j = 0 this is the premise.  For j+1, take c more than j+1 hops
  away: c and its neighbours are more than j hops away, so all of them
  hold pi's ids at level s+j, and the step of (b), run on this ball instead
  of a whole component, gives c and pi(c) equal level-(s+j+1) keys.
- F_j is exactly the set of classes that mint at level s+j.  Those of F_0
  stay fresh by (a); a class of F_j outside F_{j-1} has a neighbour in
  F_{j-1}, whose new level-(s+j-1) id its key holds; every other class hits
  (the point above).  No two classes share a key past the stable level, so
  level s+j mints one id per class of F_j, in class order.
- For j >= 2 every class of F_j has a neighbour in F_{j-1}: a class of F_0
  has all its neighbours in F_1, and a class that joined at F_i (i >= 1) has
  one in F_{i-1}.  Its key therefore holds an id of level s+j-1 minted by
  F_{j-1}, and every other id it holds is a repeated one, older than any id
  of level s+1 or later.  So the largest id of the key names its level.

The kernel keys such a component, with the wholly fresh ones, at level s+1
and then stores levels s+1 .. rounds as one tail block: level s+j holds the
ids ``lo_j .. lo_j + |F_j| - 1``, one per class of F_j in class order, and a
class outside F_j copies pi(c)'s id.  The block starts only once every
other component of the call follows a chain or keeps one id, so nothing
else mints at those levels, and a full recompute mints the block's ids in
the same order.  A component whose repeated ids several chains, or none,
hold is keyed level by level until it is wholly fresh or follows one chain.

(e) Only components an event reached run the tail again.  Along the joint
timeline, let the last call of the previous union with this tag have been
the same fixed-depth call (same depth and first level read), keyed in this
dictionary.  Call a position reached when its component in the current
union holds a touched position; a dead touched position is reached too.  An
unreached node's component holds only untouched nodes, whose attributes and
neighbour lists are as before, so it is a component of the previous union
too, and the node has the same depth-d tree, and the same d-round color, at
every depth.  A full recompute therefore hits the id the node held in the
previous call's output, at every level, and the kernel copies those ids.
Past the stable level it hands only the reached positions to the tail: the
classes of the stable partition that have a reached member, ranked by their
first reached position, with the class graph among them.  The reached
positions are a union of components, and the members of a class have equal
multisets of (edge attribute, neighbour class), so a class with a reached
member has all its neighbour classes among these, and a class with an
unreached member has all its neighbour classes with one too.  By induction
every class of the class-graph component of a class with an unreached member
has one, so every id of that component, at every level, is the old id of an
unreached node: none of them mints, and whichever path the tail takes for
that component (following a chain, joining a block or keying) gives it the
ids of its trees.  The classes that can mint lie wholly inside the reached
positions, where a class's first reached position is its smallest member,
so they rank among themselves as in a full tail and mint the same ids in
the same order; and the components left out mint nothing, so a block still
starts only where nothing else mints.  Left-out components do not hold their
ids again, as a component that follows a chain does not, so a later call
may find an older holder.  Rules (b) and (d) accept any single holder at
least as deep, so this changes which path the kernel takes, never the id it
returns.  Every other call (the first union, a snapshot, or any other last
call of the union before) runs the tail on every class.

Every id the kernel does not key is therefore the id a full recompute would
mint or hit, in the same order, and no id changes.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .cdg import adjacency, attr_bytes
from .errors import EmptyInputError, InvalidBoundError
from .wl import (
    ColorDictionary,
    _as_map,
    _by_graph,
    _colors_at,
    _encode,
    _joint_timeline,
    _joint_trajectories,
    _refine,
    awl_stable,
    partition_of,
)


@dataclass(frozen=True)
class UnfoldingTree:
    """Rooted attributed tree; ``attr=None`` encodes the empty tree.

    ``children`` holds (edge attribute, subtree) pairs.  Child order is
    not significant: trees compare as equal exactly when their canonical
    signatures match.
    """

    attr: tuple | None
    children: tuple = ()

    def __post_init__(self):
        if self.attr is None and self.children:
            raise ValueError("the empty tree has no children")

    @property
    def is_empty(self):
        return self.attr is None


EMPTY_TREE = UnfoldingTree(None)


def unfolding_tree(snapshot, v, depth):
    """Materialize the depth-``depth`` unfolding tree of ``v``.

    Exponential in ``depth``; intended for small-depth oracle checks.
    """
    if depth < 0:
        raise InvalidBoundError(f"depth must be non-negative, got {depth}")
    if v not in snapshot.nodes:
        return EMPTY_TREE
    adj = adjacency(snapshot)

    def expand(u, d):
        a = snapshot.nodes[u]
        if d == 0:
            return UnfoldingTree(a)
        kids = tuple((w, expand(nb, d - 1)) for nb, w in sorted(adj[u]))
        return UnfoldingTree(a, kids)

    return expand(v, depth)


def _frame(b):
    return struct.pack("<I", len(b)) + b


def signature(tree):
    """Canonical byte encoding: equal bytes iff equal trees (multiset children)."""
    if tree.is_empty:
        return b"E"
    parts = sorted(_frame(attr_bytes(w)) + _frame(signature(c)) for w, c in tree.children)
    return (
        b"N"
        + _frame(attr_bytes(tree.attr))
        + struct.pack("<I", len(parts))
        + b"".join(parts)
    )


def tree_sig_levels(snapshot, universe_, dictionary, max_depth):
    """Signature ids per depth 0..max_depth, computed bottom-up.

    Level d of a live node keys on its attribute plus the sorted multiset
    of (edge attribute, neighbor level d-1) pairs; dead nodes carry the
    reserved empty signature 0 at every level.
    """
    union = _encode(snapshot, universe_)
    return [_as_map(union, ids) for ids in _refine(union, dictionary, max_depth, tree=True)]


def tree_sigs_at_depth(snapshot, universe_, dictionary, depth):
    union = _encode(snapshot, universe_)
    return _as_map(union, _refine(union, dictionary, depth, tree=True, lo=depth)[0])


def tree_sigs_stable(snapshot, universe_, dictionary):
    """Deepen until the signature partition stops changing."""
    union = _encode(snapshot, universe_)
    ids, rounds = _refine(union, dictionary, len(universe_), tree=True, until_stable=True)
    return _as_map(union, ids), rounds


def depth_bound(n, both_disconnected=False):
    """Tree depth at which equality decides equality at every depth.

    ``2n - 1`` for graphs of at most ``n`` nodes; ``2n - 3`` when both
    compared snapshots are disconnected (components then have at most
    ``n - 1`` nodes).
    """
    if n < 1:
        raise InvalidBoundError("node bound must be at least 1")
    if both_disconnected:
        if n < 2:
            raise InvalidBoundError("a disconnected snapshot needs at least 2 nodes")
        return 2 * n - 3
    return 2 * n - 1


@dataclass(frozen=True)
class TreeTrajectory:
    """Per-timestamp signature ids of one node's trees at a fixed depth."""

    depth: int
    sigs: tuple


def cut_trajectories(cdgs, depth=None, dictionary=None):
    """Tree trajectories for one or more graphs over a shared session.

    ``depth=None`` uses the decisive bound for the largest universe among
    the inputs (for one node when every universe is empty).  Signatures of
    different graphs at the same timestamp are comparable by construction.
    """
    if dictionary is None:
        dictionary = ColorDictionary()
    universes, steps = _joint_timeline(cdgs)
    if depth is None:
        depth = depth_bound(max(1, *map(len, universes)))
    (sigs,) = _joint_trajectories(
        steps, lambda union: _refine(union, dictionary, depth, tree=True, lo=depth)
    )
    return [
        {v: TreeTrajectory(depth, tr) for v, tr in m.items()} for m in _by_graph(sigs, universes)
    ]


@dataclass(frozen=True)
class CutVerdict:
    equivalent: bool
    bijection: dict | None = None


def graph_cut_equivalent(g1, g2, depth=None):
    """Multiset equality of tree trajectories, with a witness on success."""
    t1, t2 = cut_trajectories([g1, g2], depth=depth)
    if Counter(tr.sigs for tr in t1.values()) != Counter(tr.sigs for tr in t2.values()):
        return CutVerdict(False)
    order1 = sorted(t1, key=lambda v: (t1[v].sigs, v))
    order2 = sorted(t2, key=lambda v: (t2[v].sigs, v))
    return CutVerdict(True, dict(zip(order1, order2)))


def stable_trajectories(g1, g2, dictionary=None):
    """Color and tree trajectories of a pair at per-timestamp stabilization.

    Returns ({tagged node: color trajectory}, {tagged node: sig trajectory})
    where tags are (graph index, node id); both computed in one session.
    """
    if dictionary is None:
        dictionary = ColorDictionary()
    _universes, steps = _joint_timeline([g1, g2])
    return _joint_trajectories(
        steps,
        lambda union: [
            list(awl_stable(union, union.order, dictionary)[0].values()),
            list(tree_sigs_stable(union, union.order, dictionary)[0].values()),
        ],
    )


@dataclass
class CorrespondenceReport:
    """Outcome of the tree-vs-color certification over a pair corpus."""

    pairs_checked: int = 0
    timestamps_checked: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches


def verify_cut_cwl_correspondence(pairs, depth=None):
    """Certify that tree partitions and color partitions coincide.

    At every timestamp of every pair, the partition of the joint node set
    by stabilized tree signature must equal the partition by stabilized
    color (which also forces trajectory equality to agree).  ``depth``
    switches both sides to a fixed depth/round count instead.
    """
    if not pairs:
        raise EmptyInputError("no pairs given")
    report = CorrespondenceReport()
    for idx, (g1, g2) in enumerate(pairs):
        dictionary = ColorDictionary()
        _universes, steps = _joint_timeline([g1, g2])
        for i, union in enumerate(steps):
            joint = union.order
            colors = _colors_at(union, joint, dictionary, depth)
            if depth is None:
                sigs = tree_sigs_stable(union, joint, dictionary)[0]
            else:
                sigs = tree_sigs_at_depth(union, joint, dictionary, depth)
            report.timestamps_checked += 1
            if partition_of(colors) != partition_of(sigs):
                report.mismatches.append({"pair": idx, "timestamp_index": i})
        report.pairs_checked += 1
    return report


@dataclass
class DepthBoundReport:
    """Outcome of the decisive-depth certification over a pair corpus."""

    pairs_checked: int = 0
    node_pairs_checked: int = 0
    disconnected_timestamps: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def verify_depth_bound(pairs, n_bound):
    """Certify that signature equality at the bound persists when deepening.

    At every timestamp of every pair, nodes with equal signatures at depth
    ``2n-1`` must stay equal at depths ``2n`` and ``2n+1``; when both
    snapshots are disconnected the same is required from depth ``2n-3``.
    """
    if not pairs:
        raise EmptyInputError("no pairs given")
    report = DepthBoundReport()
    d_full = depth_bound(n_bound)
    d_tight = depth_bound(n_bound, both_disconnected=True) if n_bound >= 2 else None
    lo = d_full if d_tight is None else d_tight  # the shallowest level read
    for idx, (g1, g2) in enumerate(pairs):
        universes, steps = _joint_timeline([g1, g2])
        for u in universes:
            if len(u) > n_bound:
                raise InvalidBoundError(
                    f"universe size {len(u)} exceeds the stated bound {n_bound}"
                )
        dictionary = ColorDictionary()
        for i, union in enumerate(steps):
            joint = union.order
            levels = dict(enumerate(_refine(union, dictionary, d_full + 2, tree=True, lo=lo), lo))
            start_depths = [d_full]
            if union.disconnected(0) and union.disconnected(1):
                report.disconnected_timestamps += 1
                if d_tight is not None:
                    start_depths.append(d_tight)
            for x, y in combinations(range(len(joint)), 2):
                report.node_pairs_checked += 1
                for d0 in start_depths:
                    if levels[d0][x] != levels[d0][y]:
                        continue
                    for d in (d_full + 1, d_full + 2):
                        if levels[d][x] != levels[d][y]:
                            report.violations.append({
                                "pair": idx, "timestamp_index": i,
                                "nodes": [list(joint[x]), list(joint[y])],
                                "equal_at": d0, "diverged_at": d,
                            })
        report.pairs_checked += 1
    return report

"""Attributed color refinement on snapshots and its temporal extension.

Refinement replaces the idealized injective hash with a canonical key plus
an append-only dictionary that assigns compact integer ids.  Color 0 is
reserved for nodes that are not alive in a snapshot and is never assigned
to a key.  One dictionary defines one comparison session: every id minted
in a session is directly comparable, and ids from different sessions are
not.

A key is one flat tuple.  Level 0 keys ``(tag0, attribute bytes)``; a
later level keys ``(tag, self part, w1, id1, w2, id2, ...)``, the node's
(edge attribute bytes, neighbour id) pairs in sorted order, laid end to
end.  The tag fixes the layout and every pair has two fields, so the flat
key is as injective as a tuple of pair tuples, and holds no tuple per pair.

The temporal test runs refinement independently per timestamp but jointly
over the disjoint union of all compared snapshots, so colors of different
graphs at the same timestamp line up by construction.  A node's color
trajectory is the tuple of its per-timestamp final colors.

Refinement reads its input as a *union* (``_Union``): the sorted node list,
each live node's attribute bytes and each live node's (edge attribute bytes,
neighbor position) list.  Every per-timestamp test in the package (color and
tree trajectories, the correspondence and depth-bound certifications,
symbolic network states) walks timestamps through one driver,
``_joint_timeline``: it checks the graphs, encodes the disjoint union of
their start graphs once, and then applies each timestamp's events, one per
graph, to the union it already has.  Nothing is replayed or merged, and each
attribute is encoded once per start item or event.  Every refinement call at
one timestamp shares that timestamp's union.  The public functions that take
a snapshot encode it with ``_encode``, which passes a union through, so the
timeline calls them with its unions.

Along the timeline, refinement is incremental.  Each union records the
positions its events touched and, per tag, the last call of the union before
it: its dictionary, the levels it keyed and, for a fixed-depth call, its
output.  In that dictionary, level r keys only a frontier: the touched
nodes and the neighbours of every node whose level-(r-1) id changed (for
colors, that node too).  It copies every other id (``trees`` says why no id
moves).  When that call is the same fixed-depth call, the levels past the
stable level key only the components that hold a touched position and copy
every other id from its output.  A union encoded from a snapshot has no
previous levels, so every call on a snapshot keys in full.

The kernel looks each key up at its depth.  A key missing from the
dictionary's stored keys may still be one of a tail block's (see
``ColorDictionary``), but only if it lies deeper than the first level of
some block: at or below the shallowest first level the kernel skips the
block probe, and a block's first level, which mints only new ids, is stored
without a lookup.

The kernel (``_refine``) hands back each level as a list of ids in the
union's node order; the timeline's callers read those lists, and only the
per-snapshot functions build {node: id} maps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .cdg import ADD, DELETE, NODE, Snapshot, attr_bytes, edge_key, timestamps, universe
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidBoundError,
    TimestampMismatchError,
)

BOTTOM = 0

BIJECTION = "bijection"
EXISTENCE = "existence"


class ColorDictionary:
    """Injective, append-only mapping from canonical keys to ids >= 1.

    Most keys are stored one by one.  A *tail block* stores, as one range of
    ids, the keys a refinement call mints for its fresh stable classes over
    its last levels, in which nothing else is minted.  Each level of a block
    has its own class set, which only grows: the level mints one id per
    class of the set, in class order, so the class of rank ``r`` at a level
    starting at id ``lo`` has id ``lo + r``.  Once the set stops growing,
    every level has the same size.  The block's first level is stored key by
    key; ``id_of`` decodes a key of a later level from the classes' shapes.
    The level of a key is the level after the one holding the key's largest
    id: a key of a lazy level holds ids of the level before, and any other id
    it holds (a class the freshness front has not reached, see ``trees``) is
    older than the block.  A shape is a key without its tag, with each id of
    that previous level replaced by a negative rank (the id minus the level's
    end) and every other id kept, as flat as the key:
    ``(self part, w1, x1, w2, x2, ...)``.  A level's shapes are built when a
    probe first lands in it; every level past the set's growth shares one
    table.  ``len`` counts every id, stored or in a block, and ``items()``
    yields every (key, id) pair in id order, block keys rebuilt from the
    block's class graph.

    Every key is one flat tuple (see the module docstring).  ``id_of``
    probes the blocks for a missed key: one bisect over the blocks' starts
    and ends finds the block holding the key's largest id, and the key is
    unpacked only when that id lies in a level with a decodable level after
    it.  The kernel knows the depth of its keys, so it looks them up through
    ``_id_at(depth)``, which skips the probe at or below the shallowest
    block's first level (``_floor``): each id names one depth, and a block's
    decodable levels lie deeper than its first.  A block's first level is
    new by construction (part (d) of ``trees``), so ``_mint`` stores its
    keys without a lookup.

    The dictionary also remembers, for ids that refinement calls held past
    their stable level, the latest call and class that held each: in
    ``_owners`` an id a call keyed, or copied for a class its block's front
    had not reached; any other block id by its id range.  Each call's
    classes have one run of ids and at most one tail (see ``_Chain``), so a
    later call in the session that is no deeper can copy them instead of
    keying.
    """

    def __init__(self):
        self._ids = {}
        self._next = 1
        self._blocks = []
        self._bounds = []
        self._floor = math.inf
        self._owners = {}

    def id_of(self, key):
        got = self._ids.get(key)
        if got is None:
            got = self._blocks and self._decode(key)
            if not got:
                got = self._next
                self._ids[key] = got
                self._next += 1
        return got

    def _id_at(self, depth):
        """The lookup for keys of ``depth``: ``id_of``, or ``_stored`` where no block
        key can lie that shallow."""
        return self._stored if depth <= self._floor else self.id_of

    def _stored(self, key):
        """``id_of`` without the block probe."""
        got = self._ids.get(key)
        if got is None:
            got = self._next
            self._ids[key] = got
            self._next += 1
        return got

    def _mint(self, key):
        """Store ``key``, which no id holds yet, at the next id."""
        got = self._ids[key] = self._next
        self._next += 1
        return got

    def __len__(self):
        return self._next - 1

    def items(self):
        """Every (key, id) pair in id order, block keys expanded."""
        blocks = iter(self._blocks)
        block = next(blocks, None)
        for key, i in self._ids.items():
            while block is not None and block.lo(1) < i:
                yield from block.items()
                block = next(blocks, None)
            yield key, i
        while block is not None:
            yield from block.items()
            block = next(blocks, None)

    def _locate(self, i):
        """(block, level index, rank) of an id in a block's range, else None."""
        k = bisect_right(self._bounds, i)
        if k % 2:
            block = self._blocks[k // 2]
            return (block, *block.place(i))
        return None

    def _decode(self, key):
        """The id of a block key past its block's first level, else None."""
        if len(key) < 2 or len(key) % 2:
            return None
        tag = key[0]
        if tag == "c":
            probe = max(key[1::2])
        elif tag == "t" and len(key) > 2:
            probe = max(key[3::2])
        else:
            return None
        # ``_bounds`` lists each block's start and end: the probe id lies in
        # a block when an odd number of them is at or below it.
        k = bisect_right(self._bounds, probe)
        if not k % 2:
            return None
        block = self._blocks[k // 2]
        level = block.place(probe)[0] + 1
        if level >= block.count or block.tag != tag:
            return None
        hi = block.lo(level)
        rank = block.shapes(level).get(_shape(key, block.lo(level - 1), hi))
        return None if rank is None else hi + rank

    def _owner(self, i):
        """(chain, class) that last held id ``i`` past its stable level, else None.

        Such an id belongs to one level (its key holds ids of the level
        before), so the pair also names the level.
        """
        got = self._owners.get(i)
        if got is None:
            found = self._blocks and self._locate(i)
            if found:
                block, level, rank = found
                return block.chain, block.members(level)[rank]
        return got

    def _add_block(self, block):
        """Register a block whose first level was just minted; reserve the rest."""
        self._blocks.append(block)
        self._bounds += (block.start, block.end)
        self._floor = min(self._floor, block.at)
        self._next = block.end


def _shape(key, lo, hi):
    """``key`` without its tag, each id in ``[lo, hi)`` as its rank minus the size."""
    shape = list(key[1:])
    if key[0] == "c" and shape[0] >= lo:
        shape[0] -= hi
    shape[2::2] = [i - hi if i >= lo else i for i in key[3::2]]
    return tuple(shape)


class _Block:
    """``count`` levels of ids for the fresh classes of one call, from level ``at``.

    ``fresh[l]`` holds the classes (in class order) that mint at level ``l``
    of the block, up to the level where the set stops growing or the block
    ends; every later level mints ``fresh[-1]``.  ``los[l]`` is the first id
    of level ``l``.  ``links`` maps every class of the block's components,
    reached by the front or not, to its ``(attribute, w1, class1, w2,
    class2, ...)``, the attribute None for colors.  The ids of a level come
    from ``chain``, whose runs and tails hold them.
    """

    __slots__ = ("start", "count", "tag", "chain", "at", "links", "fresh", "los", "end",
                 "_shapes")

    def __init__(self, start, count, tag, chain, at, links, fresh):
        self.start, self.count, self.tag, self.chain, self.at = start, count, tag, chain, at
        self.links, self.fresh = links, fresh
        self.los = list(accumulate(map(len, fresh[:-1]), initial=start))
        self.end = self.lo(count)
        self._shapes = {}

    def lo(self, level):
        """The first id of block level ``level`` (``end`` for ``count``)."""
        los = self.los
        if level < len(los):
            return los[level]
        return los[-1] + (level - len(los) + 1) * len(self.fresh[-1])

    def place(self, i):
        """(level, rank) of id ``i`` in ``[start, end)``."""
        los = self.los
        if i >= los[-1]:
            level, rank = divmod(i - los[-1], len(self.fresh[-1]))
            return level + len(los) - 1, rank
        level = bisect_right(los, i) - 1
        return level, i - los[level]

    def members(self, level):
        return self.fresh[min(level, len(self.fresh) - 1)]

    def _keys(self, level):
        """The keys of the classes that mint at block ``level`` >= 1, in rank order."""
        prev = self.chain.column(self.at + level - 1)
        tree = self.tag == "t"
        for c in self.members(level):
            link = self.links[c]
            pairs = sorted(zip(link[1::2], [prev[y] for y in link[2::2]]))
            yield sum(pairs, (self.tag, link[0] if tree else prev[c]))

    def shapes(self, level):
        """{shape: rank} of block ``level`` >= 1, built on first use."""
        level = min(level, len(self.fresh))
        got = self._shapes.get(level)
        if got is None:
            lo, hi = self.lo(level - 1), self.lo(level)
            got = self._shapes[level] = {
                _shape(key, lo, hi): rank for rank, key in enumerate(self._keys(level))
            }
        return got

    def items(self):
        for level in range(1, self.count):
            lo = self.lo(level)
            for rank, key in enumerate(self._keys(level)):
                yield key, lo + rank


class _Chain:
    """The ids one call gave its stable classes, from its stable ``level`` to ``last``.

    Class ``c`` has one run of ids, ``runs[c]``, from the stable level on:
    the levels the call keyed, then those it copied from an earlier chain or
    filled from a tail block's growing levels.  Past it comes at most one
    tail, ``tails[c] = (first, at, step)``: id ``first`` at level ``at`` and
    ``step`` more per level, so a constant id (step 0) or a class of a block
    whose class set has stopped growing (step the set's size).
    """

    __slots__ = ("level", "last", "runs", "tails")

    def __init__(self, level, last, cur):
        self.level, self.last = level, last
        self.runs, self.tails = [[i] for i in cur], [None] * len(cur)

    def ids(self, c, lo, hi):
        """Ids of class ``c`` at levels ``lo``..``hi``."""
        run, tail = self.runs[c], self.tails[c]
        out = run[lo - self.level : hi + 1 - self.level]
        if tail:
            first, at, step = tail
            lo = max(lo, self.level + len(run))
            out += [first + (d - at) * step for d in range(lo, hi + 1)]
        return out

    def column(self, d):
        """Every class's id at level ``d``."""
        k = d - self.level
        return [
            run[k] if k < len(run) else tail[0] + (d - tail[1]) * tail[2]
            for run, tail in zip(self.runs, self.tails)
        ]


def _step(id_of, tag, tree, own, prev, nbrs, members):
    """Next-level ids of ``members`` (0 for dead ones) from their ids ``prev``.

    ``sum`` lays the sorted (edge attribute, neighbour id) pairs end to end
    after ``(tag, self part)``, which makes the flat key.
    """
    return [
        BOTTOM
        if nbrs[i] is None
        else id_of(
            sum(sorted([(w, prev[j]) for w, j in nbrs[i]]), (tag, own[i] if tree else prev[i]))
        )
        for i in members
    ]


def _stable_tail(dictionary, tree, own, nbrs, cur, mark, level, rounds):
    """Ids of the stable classes from ``level`` (stable) to ``rounds``, as a chain.

    ``cur`` holds the classes' ids at ``level``, ``own`` their attributes,
    ``nbrs`` their (edge attribute, class) lists (None for dead nodes), and
    ``mark`` the first id minted at ``level``.  Each component of the class
    graph is sorted out at the first level where one of three holds.  All of
    its ids are held, at this level, by the classes of one earlier chain that
    reaches ``rounds``: it copies their runs and tails.  Its repeated ids (if
    any) are all held so and the rest are fresh: it joins the tail block,
    whose freshness front reaches the repeated classes one hop per level.
    Otherwise it is keyed one more level.  Once no component is left, the
    block's first level is keyed and its later levels are counted: each is
    the level before plus its neighbours, and a class the front has not
    reached copies its holder's ids.  Dead and isolated tree classes keep one
    id.  See ``trees`` for why the ids are those of a full recompute.
    """
    tag = "t" if tree else "c"
    chain = _Chain(level, rounds, cur)
    runs, tails = chain.runs, chain.tails
    owners, owner = dictionary._owners, dictionary._owner
    comps, seen = [], set()
    for c in range(len(cur)):
        if nbrs[c] is None or (tree and not nbrs[c]):
            tails[c] = (cur[c], level, 0)
        elif c not in seen:
            comps.append(_reached(nbrs, (c,)))
            seen.update(comps[-1])

    def hold(members):
        # The latest holder wins: a component that repeats the previous
        # timestamp's then copies that call, not an older one.
        for c in members:
            owners[cur[c]] = (chain, c)

    def holders(old):
        """The (chain, class) that holds each id of ``old``, if one chain reaching
        ``rounds`` holds them all."""
        held = [owner(cur[c]) for c in old]
        src = held[0] and held[0][0]
        if src and src.last >= rounds and all(o and o[0] is src for o in held):
            return held
        return None

    grown, follow = [], {}

    def settle(candidates):
        """Components still unknown at ``level`` after sorting out the rest."""
        unknown = []
        for k in candidates:
            members = comps[k]
            old = [c for c in members if cur[c] < mark]
            held = old and holders(old)
            if held and len(old) == len(members):
                for c, (src, o) in zip(members, held):
                    runs[c] += src.runs[o][level + 1 - src.level :]
                    tails[c] = src.tails[o]
                continue
            if held or not old:
                grown.extend(members)
                follow.update(zip(old, held or ()))
            else:
                unknown.append(k)
            hold(members)
        return unknown

    unknown = range(len(comps))
    while level < rounds:
        unknown = settle(unknown)
        if not unknown:
            break
        stepped = sorted(grown + [c for k in unknown for c in comps[k]])
        mark = dictionary._next
        level += 1
        id_of = dictionary._id_at(level)
        for c, i in zip(stepped, _step(id_of, tag, tree, own, cur, nbrs, stepped)):
            cur[c] = i
            runs[c].append(i)
        hold(grown)
    if grown and level < rounds:
        grown.sort()
        # join[c]: the block level from which c mints.  The fresh classes and
        # their neighbours mint from the first; a class j + 1 hops from every
        # fresh one, from level j.
        front = [c for c in grown if cur[c] >= mark]
        join, reach = dict.fromkeys(front, 0), 0
        while front:
            reached = []
            for x in front:
                for _, y in nbrs[x]:
                    if y not in join:
                        join[y] = reach
                        reached.append(y)
            front, reach = reached, reach + 1
        count = rounds - level
        top = min(max(join.values()), count - 1)
        fresh = [tuple([c for c in grown if join[c] <= j]) for j in range(top + 1)]
        start = dictionary._next
        # every class of fresh[0] mints a new, distinct id: no lookup (part (d))
        _step(dictionary._mint, tag, tree, own, cur, nbrs, fresh[0])
        links = {c: sum(nbrs[c], (own[c] if tree else None,)) for c in grown}
        block = _Block(start, count, tag, chain, level + 1, links, fresh)
        dictionary._add_block(block)
        # A class the front has not reached yet copies its holder's ids and
        # holds them, so a later call finds this chain behind all of them.
        for c, (src, o) in follow.items():
            copied = src.ids(o, level + 1, level + min(join[c], count))
            runs[c] += copied
            for i in copied:
                owners[i] = (chain, c)
        for lo, members in zip(block.los, fresh[:top]):
            for r, c in enumerate(members):
                runs[c].append(lo + r)
        for r, c in enumerate(fresh[top]):
            tails[c] = (block.los[top] + r, level + 1 + top, len(fresh[top]))
    return chain


class _Union:
    """One timestamp's refinement input, encoded once and shared by every call.

    ``order`` is the sorted node list.  ``own[p]`` holds the attribute bytes
    of node ``order[p]`` and ``nbrs[p]`` its (edge attribute bytes, neighbor
    position) pairs; both are None while the node is dead.  The kernel sorts
    whatever it reads from ``nbrs``, so the order of a list never matters.
    A union is never changed once built: ``after`` replaces the lists it
    touches.

    A union made by ``after`` also knows what changed: ``touched`` holds the
    positions whose ``own`` or ``nbrs`` entry it replaced, and ``_prev`` what
    the union it was made from kept: per tag, ``(dictionary, levels, call,
    out)`` of its last ``_refine`` call, with the keyed levels (0 up to the
    stable level) and, for a fixed-depth call, ``(lo, rounds)`` and the
    output (None and None for an until-stable call).  ``_refine`` writes it
    into ``_keyed`` for the next union; a union never refers to the union
    before, so nothing older is held.  A union from scratch has no record.
    """

    __slots__ = ("order", "own", "nbrs", "touched", "_pos", "_prev", "_keyed")

    def __init__(self, order, nodes, edges):
        """``nodes`` ({node: attribute}) and ``edges`` ({(u, v): attribute}) on ``order``."""
        self.order = order
        self._pos = pos = {v: p for p, v in enumerate(order)}
        self.own = [attr_bytes(nodes[v]) if v in nodes else None for v in order]
        self.nbrs = nbrs = [[] if v in nodes else None for v in order]
        for (u, v), w in edges.items():
            p, q, b = pos[u], pos[v], attr_bytes(w)
            nbrs[p].append((b, q))
            nbrs[q].append((b, p))
        self.touched, self._prev, self._keyed = None, {}, {}

    def after(self, events):
        """This joint union once graph ``gi`` has applied ``events[gi]``, for each ``gi``.

        Nodes are ``(graph index, node)`` pairs.  The events must apply
        cleanly, as those of a ``Cdg`` do.  A node delete drops the node's
        edges too, so it touches the node's neighbours as well.
        """
        pos = self._pos
        new = object.__new__(_Union)
        new.order, new._pos = self.order, pos
        new.own, new.nbrs = own, nbrs = list(self.own), list(self.nbrs)
        new.touched = touched = set()
        new._prev, new._keyed = self._keyed, {}

        def unlink(p, q):
            nbrs[p] = [x for x in nbrs[p] if x[1] != q]
            touched.add(p)

        for gi, e in enumerate(events):
            if e.item == NODE:
                p = pos[gi, e.key]
                touched.add(p)
                if e.kind == DELETE:
                    for _, q in nbrs[p]:
                        unlink(q, p)
                    own[p] = nbrs[p] = None
                    continue
                own[p] = attr_bytes(e.attr)
                if e.kind == ADD:
                    nbrs[p] = []
            else:
                p, q = pos[gi, e.key[0]], pos[gi, e.key[1]]
                touched.update((p, q))
                if e.kind != ADD:
                    unlink(p, q)
                    unlink(q, p)
                if e.kind != DELETE:
                    b = attr_bytes(e.attr)
                    nbrs[p] = nbrs[p] + [(b, q)]
                    nbrs[q] = nbrs[q] + [(b, p)]
        return new

    def disconnected(self, gi):
        """Whether graph ``gi``'s live nodes form two or more components.

        As ``components.is_disconnected`` of that graph's snapshot: no live
        node counts as connected.
        """
        live = [p for p, (g, _) in enumerate(self.order) if g == gi and self.nbrs[p] is not None]
        return len(_reached(self.nbrs, live[:1])) < len(live)


def _encode(snapshot, universe_):
    """``snapshot`` over the nodes ``universe_`` as a union; a union passes through."""
    if isinstance(snapshot, _Union):
        return snapshot
    return _Union(sorted(universe_), snapshot.nodes, snapshot.edges)


def _refine(union, dictionary, rounds, tree=False, until_stable=False, lo=0):
    """Levels ``lo``..``rounds`` of attributed refinement, for colors and trees.

    Level 0 keys a live node on its attribute; level d+1 on a self part plus
    the sorted multiset of (edge attribute, neighbor level-d id) pairs, as
    one flat key ``(tag, self part, w1, id1, w2, id2, ...)``.  The self part
    is the level-d color for refinement (tags ``c0``/``c``) and the node's
    attribute for trees (``t0``/``t``); dead nodes carry 0.  Each level is a
    list of ids in ``union.order``.  ``until_stable`` stops at the first
    level that leaves the partition unchanged and returns that level alone,
    with its round count.

    When the union before this one keyed its levels in the same dictionary,
    level d keys only the frontier: the touched nodes, the current neighbours
    of every node whose level-(d-1) id changed from that union's, and, for
    colors, those nodes themselves.  Every other id is copied from that
    union's level d (see ``trees``); levels it did not key are keyed in full.
    Once the partition is stable the classes go to ``_stable_tail`` (see
    ``trees``), each keyed by its first member.  When the union before made
    this fixed-depth call last (same dictionary, ``lo`` and ``rounds``),
    only the positions whose component holds a touched position go to the
    tail, and every other position copies its ids past the stable level
    from that call's output (part (e) of ``trees``).
    """
    if rounds < 0:
        raise InvalidBoundError(f"depth must be non-negative, got {rounds}")
    order, own, nbrs = union.order, union.own, union.nbrs
    tag = "t" if tree else "c"
    made_by, known, call, before = union._prev.get(tag, (None, (), None, None))
    if made_by is not dictionary:
        known = ()
    id_of = dictionary._id_at(0)
    if known:
        touched = sorted(union.touched)
        ids = list(known[0])
        for p in touched:
            ids[p] = id_of((tag + "0", own[p])) if own[p] is not None else BOTTOM
        changed = touched
    else:
        ids = [id_of((tag + "0", b)) if b is not None else BOTTOM for b in own]
    levels = [ids]
    count = len(set(ids))
    while len(levels) <= rounds:
        mark = dictionary._next
        prev = ids
        r = len(levels)
        id_of = dictionary._id_at(r)
        if r < len(known):
            # Only the frontier can key differently from the union before.
            was = known[r - 1]
            changed = [p for p in changed if prev[p] != was[p]]
            frontier = set(touched)
            for p in changed:
                frontier.update(q for _, q in nbrs[p] or ())
            if not tree:
                frontier.update(changed)
            frontier = sorted(frontier)
            ids = list(known[r])
            for p, i in zip(frontier, _step(id_of, tag, tree, own, prev, nbrs, frontier)):
                ids[p] = i
            changed = frontier
        else:
            ids = _step(id_of, tag, tree, own, prev, nbrs, range(len(order)))
        levels.append(ids)
        count, was_count = len(set(ids)), count
        if count == was_count:
            break
    if until_stable:
        union._keyed[tag] = (dictionary, levels, None, None)
        return ids, len(levels) - 1
    out = levels[lo:]
    if len(levels) <= rounds:
        # Stable: hand the classes, each keyed by its first member, to the tail;
        # after the same call on the union before, only the reached positions.
        reuse = known and call == (lo, rounds)
        positions = _reached(nbrs, union.touched) if reuse else range(len(order))
        first = {}
        for p in positions:
            first.setdefault(ids[p], p)
        slot = {c: k for k, c in enumerate(first)}
        slot_of = [slot[ids[p]] for p in positions]
        members = list(first.values())
        class_nbrs = [
            None if nbrs[i] is None else [(w, slot[ids[j]]) for w, j in nbrs[i]] for i in members
        ]
        chain = _stable_tail(
            dictionary,
            tree,
            [own[i] for i in members],
            class_nbrs,
            list(first),
            mark,
            len(levels) - 1,
            rounds,
        )
        for d in range(max(lo, len(levels)), rounds + 1):
            column = chain.column(d)
            # the positions not handed to the tail copy the recorded output
            level = list(before[d - lo]) if reuse else [BOTTOM] * len(order)
            for p, k in zip(positions, slot_of):
                level[p] = column[k]
            out.append(level)
    union._keyed[tag] = (dictionary, levels, (lo, rounds), out)
    return out


def _reached(nbrs, seeds):
    """The positions whose component holds a seed, in order; a dead seed is its own."""
    seen, todo = set(seeds), list(seeds)
    while todo:
        for _, q in nbrs[todo.pop()] or ():
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return sorted(seen)


def _as_map(union, ids):
    """A level's ids as {node: id}, in ``union.order``, so ``values()`` lists them back."""
    return dict(zip(union.order, ids))


def awl_init(snapshot, universe_, dictionary):
    """Iteration-0 colors: attribute color for live nodes, 0 otherwise."""
    union = _encode(snapshot, universe_)
    return _as_map(union, _refine(union, dictionary, 0)[0])


def awl_step(snapshot, prev, dictionary):
    """One refinement round.

    A live node's new color keys on its previous color plus the multiset of
    (edge attribute, neighbor color) pairs, sorted canonically.  Nodes that
    are not alive keep color 0.
    """
    union = _encode(snapshot, prev)
    order = union.order
    ids = [prev[v] for v in order]
    ids = _step(dictionary.id_of, "c", False, union.own, ids, union.nbrs, range(len(order)))
    return dict(zip(order, ids))


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
    union = _encode(snapshot, universe_)
    ids, rounds = _refine(union, dictionary, len(universe_), until_stable=True)
    return _as_map(union, ids), rounds


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
    counts = {len(timestamps(g)) for g in cdgs}
    if len(counts) > 1:
        raise TimestampMismatchError(f"timestamp counts differ: {sorted(counts)}")


def refine_at_depth(snapshot, universe_, dictionary, depth):
    """Colors after exactly ``depth`` rounds (depth 0 = initial colors)."""
    union = _encode(snapshot, universe_)
    return _as_map(union, _refine(union, dictionary, depth, lo=depth)[0])


def _colors_at(snapshot, universe_, dictionary, depth):
    """Colors at stabilization (``depth=None``) or after exactly ``depth`` rounds."""
    if depth is None:
        return awl_stable(snapshot, universe_, dictionary)[0]
    return refine_at_depth(snapshot, universe_, dictionary, depth)


def _joint_timeline(cdgs):
    """The graphs' universes, plus one lazy joint union per timestamp.

    Checks the graphs at once (so an empty list raises here).  Nodes are
    tagged ``(graph index, node)``.  The first union encodes the graphs'
    start graphs; each later one is the one before with every graph's event
    at that timestamp applied (``_Union.after``), so no snapshot is replayed
    or merged and each attribute is encoded once.  This relies on the
    ``Cdg`` invariant: construction replays the whole stream through
    ``validate_stream``, so every event applies cleanly.
    """
    check_comparable(cdgs)
    universes = [universe(g) for g in cdgs]
    start = _Union(
        [(gi, v) for gi, us in enumerate(universes) for v in us],
        {(gi, v): a for gi, g in enumerate(cdgs) for v, a in g.start.nodes.items()},
        {((gi, u), (gi, v)): w for gi, g in enumerate(cdgs) for (u, v), w in g.start.edges.items()},
    )
    return universes, accumulate(zip(*(g.events for g in cdgs)), _Union.after, initial=start)


def _joint_trajectories(steps, ids_at):
    """Trajectories of the id lists that ``ids_at(union)`` returns per step.

    Each list holds one id per node of ``union.order``.  Returns, for each
    returned list in order, {tagged node: tuple of ids}.
    """
    joint, columns = (), []
    for union in steps:
        joint = union.order
        columns.append(ids_at(union))
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
        steps, lambda union: [list(_colors_at(union, union.order, dictionary, depth).values())]
    )
    return _by_graph(colors, universes)


@dataclass(frozen=True)
class GraphComparison:
    equivalent: bool
    trajectories: tuple
    first_divergence: int | None


def compare_graphs(g1, g2, mode=BIJECTION):
    """Graph-level verdict over a shared refinement session.

    ``bijection`` mode demands equal trajectory multisets, ``existence``
    mode only equal trajectory sets.  ``first_divergence`` is the earliest
    timestamp index whose per-timestamp color statistics already differ,
    or None when the difference only shows across whole trajectories.
    """
    if mode not in (BIJECTION, EXISTENCE):
        raise ValueError(f"unknown comparison mode {mode!r}")
    t1, t2 = cwl([g1, g2])
    summary = Counter if mode == BIJECTION else set
    equivalent = summary(t1.values()) == summary(t2.values())
    diverged = (
        i for i in range(len(g1.events) + 1)
        if summary(tr[i] for tr in t1.values()) != summary(tr[i] for tr in t2.values())
    )
    first = None if equivalent else next(diverged, None)
    return GraphComparison(equivalent, (t1, t2), first)

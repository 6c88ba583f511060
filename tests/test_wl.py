"""Color refinement: known partitions, trajectory semantics, comparisons."""

import pytest

from cdgwl import (
    ADD,
    ATTR_CHANGE,
    BIJECTION,
    BOTTOM,
    Cdg,
    ColorDictionary,
    DELETE,
    DimensionMismatchError,
    EDGE,
    EXISTENCE,
    Event,
    GeneratorConfig,
    StartGraph,
    TimestampMismatchError,
    check_comparable,
    compare_graphs,
    cut_trajectories,
    cwl,
    generate,
    generate_isomorphic_pair,
    is_disconnected,
    make_pair,
    NODE,
    snapshots,
    universe,
)
from cdgwl import wl
from cdgwl.wl import (
    _encode,
    _joint_timeline,
    awl_init,
    awl_stable,
    awl_step,
    merged_snapshot,
    partition_of,
)
from conftest import A, B, churn_cdg, delete_readd_cdg, k3, path3, snap, star4
from test_trees import CountingDictionary


def cells(coloring):
    return {frozenset(c) for c in partition_of(coloring)}


def test_path3_stable_partition():
    colors, _ = awl_stable(path3(), ["a", "b", "c"], ColorDictionary())
    assert cells(colors) == {frozenset({"a", "c"}), frozenset({"b"})}


def test_star_center_separates_from_leaves():
    colors, _ = awl_stable(star4(), ["x", "a", "b", "c"], ColorDictionary())
    assert cells(colors) == {frozenset({"x"}), frozenset({"a", "b", "c"})}


def test_k3_is_one_class():
    colors, _ = awl_stable(k3(), ["a", "b", "c"], ColorDictionary())
    assert cells(colors) == {frozenset({"a", "b", "c"})}


def test_distinct_attributes_separate_at_init():
    s = snap({"a": A, "b": B})
    colors = awl_init(s, ["a", "b"], ColorDictionary())
    assert colors["a"] != colors["b"]


def test_absent_nodes_keep_reserved_color():
    s = path3()
    d = ColorDictionary()
    colors = awl_init(s, ["a", "b", "c", "ghost"], d)
    assert colors["ghost"] == BOTTOM
    stepped = awl_step(s, colors, d)
    assert stepped["ghost"] == BOTTOM
    assert all(c != BOTTOM for v, c in stepped.items() if v != "ghost")


def test_refinement_is_monotone():
    # every cell of round k+1 must lie inside one cell of round k
    for seed in range(10):
        g = generate(GeneratorConfig(n_nodes=6, n_events=3), seed=seed)
        s = snapshots(g)[-1]
        d = ColorDictionary()
        colors = awl_init(s, universe(g), d)
        for _ in range(len(universe(g))):
            nxt = awl_step(s, colors, d)
            for cell in partition_of(nxt):
                parents = {colors[v] for v in cell}
                assert len(parents) == 1
            colors = nxt


def test_stabilizes_within_universe_size_rounds():
    for seed in range(10):
        g = generate(GeneratorConfig(n_nodes=6, n_events=2), seed=seed)
        s = snapshots(g)[-1]
        _, iterations = awl_stable(s, universe(g), ColorDictionary())
        assert iterations <= len(universe(g))


def test_dictionary_session_is_deterministic():
    g = churn_cdg()
    assert cwl([g]) == cwl([g])


def test_trajectory_shape_and_bottom_entries():
    g = delete_readd_cdg()
    trajs = cwl([g])[0]
    assert set(trajs) == {"a", "b"}
    assert all(len(tr) == 1 + len(g.events) for tr in trajs.values())
    assert trajs["b"][1] == BOTTOM     # deleted at t=1
    assert trajs["b"][2] != BOTTOM     # re-added at t=2
    assert trajs["a"][0] != BOTTOM


def test_joint_refinement_makes_graphs_comparable():
    g = churn_cdg()
    t1, t2 = cwl([g, g])
    assert t1 == t2
    assert compare_graphs(g, g).equivalent


def test_permutation_equivariance_of_partitions():
    cfg = GeneratorConfig(n_nodes=5, n_events=4)
    g1, g2, mapping = generate_isomorphic_pair(cfg, seed=5)
    t1, t2 = cwl([g1, g2])
    for v, tr in t1.items():
        assert t2[mapping[v]] == tr


def test_bijection_vs_existence_modes():
    two = Cdg(StartGraph({"a": A, "b": A}, {}))
    three = Cdg(StartGraph({"x": A, "y": A, "z": A}, {}))
    assert compare_graphs(two, three, mode=EXISTENCE).equivalent
    assert not compare_graphs(two, three, mode=BIJECTION).equivalent


def test_first_divergence_reported():
    g1 = churn_cdg()
    g2 = generate(GeneratorConfig(n_nodes=4, n_events=7), seed=1)
    verdict = compare_graphs(g1, g2, mode=BIJECTION)
    assert not verdict.equivalent
    assert verdict.first_divergence is not None
    i = verdict.first_divergence
    from collections import Counter

    t1, t2 = verdict.trajectories
    assert Counter(tr[i] for tr in t1.values()) != Counter(tr[i] for tr in t2.values())


def test_check_comparable_raises():
    g1 = Cdg(StartGraph({"a": A}, {}))
    g2 = Cdg(StartGraph({"a": (1.0, 2.0)}, {}))
    with pytest.raises(DimensionMismatchError):
        check_comparable([g1, g2])
    g3 = churn_cdg()
    with pytest.raises(TimestampMismatchError):
        check_comparable([g1, g3])
    with pytest.raises(TimestampMismatchError):
        compare_graphs(g1, g3)


def test_merged_snapshot_tags_and_joins():
    s = k3()
    merged, joint = merged_snapshot([s, s], [["a", "b", "c"], ["a", "b", "c"]])
    assert set(joint) == {(0, "a"), (0, "b"), (0, "c"), (1, "a"), (1, "b"), (1, "c")}
    assert len(merged.nodes) == 6
    assert len(merged.edges) == 6
    assert all(u[0] == v[0] for (u, v) in merged.edges)


def test_fixed_depth_trajectories():
    g = churn_cdg()
    shallow = cwl([g], depth=0)[0]
    live_colors = [tr[0] for v, tr in shallow.items() if tr[0] != BOTTOM]
    # depth 0 is attribute-only: nodes a and b share attrs at t0
    assert len(set(live_colors)) < len(live_colors)


def test_empty_graph_list_is_a_typed_error():
    from cdgwl import CdgError, EmptyInputError

    with pytest.raises(EmptyInputError):
        cwl([])
    assert issubclass(EmptyInputError, CdgError)


def test_first_divergence_on_an_empty_universe():
    # the timestamp count comes from the stream, not from a first trajectory
    empty = Cdg(StartGraph({}, {}), [], dim=1)
    one = Cdg(StartGraph({"a": A}, {}), [], dim=1)
    for g1, g2 in ((empty, one), (one, empty)):
        verdict = compare_graphs(g1, g2)
        assert not verdict.equivalent and verdict.first_divergence == 0
    assert compare_graphs(empty, empty).equivalent


def _assert_timeline_matches_scratch(cdgs):
    """Each timestamp's union equals the one encoded from the merged snapshots."""
    universes, steps = _joint_timeline(cdgs)
    unions = list(steps)  # earlier unions must survive later steps unchanged
    seqs = list(zip(*(snapshots(g) for g in cdgs)))
    assert len(unions) == len(seqs)

    def nbrs(u):
        return [None if ns is None else sorted(ns) for ns in u.nbrs]

    for union, snaps in zip(unions, seqs):
        scratch = _encode(*merged_snapshot(snaps, universes))
        assert union.order == scratch.order
        assert union.own == scratch.own
        assert nbrs(union) == nbrs(scratch)
        assert [union.disconnected(gi) for gi in range(len(cdgs))] == [
            is_disconnected(s) for s in snaps
        ]


@pytest.mark.parametrize(
    "disconnected, mixed", [(False, False), (True, False), (False, True), (True, True)]
)
def test_event_by_event_union_matches_scratch_on_pair_corpora(disconnected, mixed):
    pairs = [make_pair(3, i, disconnected=disconnected, mixed=mixed) for i in range(25)]
    kinds = {(e.item, e.kind) for pair in pairs for g in pair for e in g.events}
    assert kinds == {(item, kind) for item in (NODE, EDGE) for kind in (ADD, DELETE, ATTR_CHANGE)}
    for pair in pairs:
        _assert_timeline_matches_scratch(list(pair))


def _hand_streams():
    star = StartGraph(
        {"x": A, "a": A, "b": B, "c": A}, {("x", "a"): A, ("x", "b"): B, ("x", "c"): A}
    )
    return {
        # the centre's delete drops three edges
        "hub delete": Cdg(star, (Event(1.0, NODE, "x", DELETE), Event(2.0, NODE, "x", ADD, B))),
        "edge attr change": Cdg(
            star,
            (Event(1.0, EDGE, ("x", "b"), ATTR_CHANGE, A), Event(2.0, NODE, "a", ATTR_CHANGE, B)),
        ),
        "delete and re-add": Cdg(
            star,
            (
                Event(1.0, EDGE, ("x", "a"), DELETE),
                Event(2.0, NODE, "b", DELETE),
                Event(3.0, EDGE, ("x", "a"), ADD, B),
                Event(4.0, NODE, "b", ADD, A),
                Event(5.0, EDGE, ("a", "b"), ADD, A),
            ),
        ),
        "empty start": Cdg(
            StartGraph({}, {}),
            (
                Event(1.0, NODE, 2, ADD, A),
                Event(2.0, NODE, 1, ADD, B),
                Event(3.0, EDGE, (1, 2), ADD, A),
            ),
        ),
        # "a" sorts first and is dead until t=1
        "dead at t0": Cdg(
            StartGraph({"b": A, "c": B}, {("b", "c"): A}),
            (Event(1.0, NODE, "a", ADD, A), Event(2.0, EDGE, ("a", "c"), ADD, B)),
        ),
        "every kind": churn_cdg(),
    }


@pytest.mark.parametrize("name", sorted(_hand_streams()))
def test_event_by_event_union_matches_scratch_on_hand_streams(name):
    g = _hand_streams()[name]
    _assert_timeline_matches_scratch([g])
    _assert_timeline_matches_scratch([g, g])


@pytest.mark.parametrize(
    "run, minted, full, share", [(cwl, 1049, 24644, 4), (cut_trajectories, 89938, 30806, 2)]
)
def test_timeline_keys_only_what_the_events_touch(run, minted, full, share):
    """Along the timeline, a level keys only the nodes next to a changed id.

    On this n=40/k=150 pair, keying every node at every keyed level made
    24 644 ``id_of`` calls for ``cwl`` and 30 806 for ``cut_trajectories``.
    Keying level r on the nodes within r hops of an event made 4 624 for
    ``cwl``.  Keying it on the touched nodes and the neighbours of the nodes
    whose level-(r-1) id changed (for colors, those nodes too) makes 3 436
    for ``cwl`` and 4 594 for ``cut_trajectories``; running the tail past the
    stable level only on the components an event reached made 4 590 for
    ``cut_trajectories``, and minting each tail block's first level without
    a lookup makes 3 708 (a lookup here is ``id_of`` or the kernel's
    probe-free ``_stored``).  All mint the same ids.
    """
    config = GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1)
    a, b, _ = generate_isomorphic_pair(config, 0)
    dictionary = CountingDictionary()
    run([a, b], dictionary=dictionary)
    assert len(dictionary) == minted
    assert dictionary.calls <= full // share
    assert dictionary.calls == {cwl: 3436, cut_trajectories: 3708}[run]


def _keyed_positions(monkeypatch, cdgs, tree):
    """Per timestamp, the positions each level from 1 keys, up to the stable level.

    Also checks the unions against scratch encodings, and the ids against a
    second session that keys every level of each scratch union in full.
    """
    _assert_timeline_matches_scratch(cdgs)
    keyed, step = [], wl._step

    def recording(id_of, tag, tree, own, prev, nbrs, members):
        keyed[-1].append(list(members))
        return step(id_of, tag, tree, own, prev, nbrs, members)

    universes, steps = _joint_timeline(cdgs)
    along, full = ColorDictionary(), ColorDictionary()
    for union, snaps in zip(steps, zip(*(snapshots(g) for g in cdgs))):
        scratch = _encode(*merged_snapshot(snaps, universes))
        want = wl._refine(scratch, full, len(scratch.order), tree=tree, until_stable=True)
        keyed.append([])
        with monkeypatch.context() as m:
            m.setattr(wl, "_step", recording)
            got = wl._refine(union, along, len(union.order), tree=tree, until_stable=True)
        assert got == want
    return keyed


# a - b - c - d - e - f, every node and edge attribute A
PATH = StartGraph({v: A for v in "abcdef"}, {(u, v): A for u, v in zip("abcde", "bcdef")})


@pytest.mark.parametrize("tree", [False, True])
def test_an_edge_between_equal_attributes_keys_only_its_ends_at_level_1(tree, monkeypatch):
    # no level-0 id changes, so level 1 keys a and c; the 1-hop ball is a-d
    g = Cdg(PATH, (Event(1.0, EDGE, ("a", "c"), ADD, A),))
    keyed = _keyed_positions(monkeypatch, [g], tree)
    assert keyed[0][0] == list(range(6))
    assert keyed[1][:2] == [[0, 2], [0, 1, 2, 3]]


@pytest.mark.parametrize("tree", [False, True])
def test_a_reverted_edge_attribute_keys_only_its_ends_at_level_1(tree, monkeypatch):
    # the change and its revert each key c and d at level 1 and their
    # neighbours at level 2, where the balls are b-e and a-f
    g = Cdg(
        PATH,
        (
            Event(1.0, EDGE, ("c", "d"), ATTR_CHANGE, B),
            Event(2.0, EDGE, ("c", "d"), ATTR_CHANGE, A),
        ),
    )
    keyed = _keyed_positions(monkeypatch, [g], tree)
    assert [levels[:2] for levels in keyed[1:]] == [[[2, 3], [1, 2, 3, 4]]] * 2


def _tail_reach(monkeypatch, cdgs, tree, depth, lo, before_call=None):
    """Per timestamp: the positions handed to the tail (None for all) and its class count.

    Makes the same ``_refine`` call at every union, checks the unions
    against scratch encodings and every level it returns against a second
    session that keys each scratch union in full.  ``before_call(i, along,
    full levels)`` runs before the call at timestamp ``i``.
    """
    _assert_timeline_matches_scratch(cdgs)
    reach, stable_tail, reached = [], wl._stable_tail, wl._reached

    def recording_tail(dictionary, tree, own, nbrs, cur, mark, level, rounds):
        reach[-1][1] = len(cur)
        with monkeypatch.context() as m:  # the tail's component walks are not the reach
            m.setattr(wl, "_reached", reached)
            return stable_tail(dictionary, tree, own, nbrs, cur, mark, level, rounds)

    def recording_reached(nbrs, touched):
        reach[-1][0] = reached(nbrs, touched)
        return reach[-1][0]

    universes, steps = _joint_timeline(cdgs)
    along, full = ColorDictionary(), ColorDictionary()
    for i, (union, snaps) in enumerate(zip(steps, zip(*(snapshots(g) for g in cdgs)))):
        scratch = _encode(*merged_snapshot(snaps, universes))
        want = wl._refine(scratch, full, depth, tree=tree)
        if before_call:
            before_call(i, along, want)
        reach.append([None, 0])
        with monkeypatch.context() as m:
            m.setattr(wl, "_stable_tail", recording_tail)
            m.setattr(wl, "_reached", recording_reached)
            got = wl._refine(union, along, depth, tree=tree, lo=lo)
        assert got == want[lo:]
    assert list(along.items()) == list(full.items())
    return [tuple(r) for r in reach]


# a - b - c and x - y - z, every node and edge attribute A
TWO_PATHS = StartGraph(
    {v: A for v in "abcxyz"}, {("a", "b"): A, ("b", "c"): A, ("x", "y"): A, ("y", "z"): A}
)


@pytest.mark.parametrize("tree, lo", [(False, 11), (True, 11), (True, 7)])
def test_a_class_across_a_reached_and_an_untouched_component_keys_only_the_reached(
    tree, lo, monkeypatch
):
    # the change and its revert reach a - b - c alone; after the revert its
    # classes (ends, middles) span x - y - z too, which hands none of its
    # positions to the tail and copies its ids; the classes rank by their
    # first reached position, as in a full tail
    g = Cdg(
        TWO_PATHS,
        (
            Event(1.0, EDGE, ("a", "b"), ATTR_CHANGE, B),
            Event(2.0, EDGE, ("a", "b"), ATTR_CHANGE, A),
        ),
    )
    assert _tail_reach(monkeypatch, [g], tree, 11, lo) == [
        (None, 2), ([0, 1, 2], 3), ([0, 1, 2], 2)
    ]


def test_an_untouched_component_held_by_several_chains_is_copied(monkeypatch):
    # at timestamp 7 the edge n0 - n2 goes, leaving n3 - n1 - n5 untouched:
    # the stable level falls to 2, where the ids of its end class and its
    # middle class were last held past their stable level by two calls
    # (``_owner``), so a full tail would key it level by level
    n = [f"n{i}" for i in range(6)]
    g = Cdg(
        StartGraph({v: A for v in n if v != "n4"}, {("n0", "n5"): A, ("n3", "n5"): A}),
        (
            Event(1.0, EDGE, ("n0", "n2"), ADD, A),
            Event(2.5, EDGE, ("n0", "n5"), DELETE),
            Event(3.0, EDGE, ("n1", "n3"), ADD, A),
            Event(3.5, EDGE, ("n1", "n5"), ADD, A),
            Event(5.0, EDGE, ("n3", "n5"), DELETE),
            Event(5.5, NODE, "n4", ADD, A),
            Event(7.0, EDGE, ("n0", "n2"), DELETE),
        ),
    )
    holders = []

    def owners_of_the_path(i, along, levels):
        if i == 7:
            holders.extend(along._owner(levels[2][p]) for p in (1, 3))

    reach = _tail_reach(monkeypatch, [g], True, 11, 11, owners_of_the_path)
    assert reach[7] == ([0, 2], 1)
    assert all(holders) and holders[0][0] is not holders[1][0]


@pytest.mark.parametrize("stable_first", [True, False])
@pytest.mark.parametrize("tree", [False, True])
@pytest.mark.parametrize("disconnected", [False, True])
def test_an_until_stable_and_a_fixed_depth_call_on_one_union_mint_full_recompute_ids(
    disconnected, tree, stable_first, monkeypatch
):
    """Both calls with one tag at every union: the ids and ``items()`` of a full recompute.

    A union keeps one record per tag, of its last call, so the fixed-depth
    call walks the union for its reached components (and copies the rest)
    only after a union whose last call was that call.
    """
    reached, walks = wl._reached, []
    order = [(None, {"until_stable": True}), (11, {"lo": 7})]
    if not stable_first:
        order.reverse()

    def calls(union, dictionary):
        return [
            wl._refine(union, dictionary, rounds or len(union.order), tree=tree, **kw)
            for rounds, kw in order
        ]

    unions = 0
    for i in range(20):
        cdgs = list(make_pair(0, i, disconnected=disconnected))
        universes, steps = _joint_timeline(cdgs)
        along, full = ColorDictionary(), ColorDictionary()
        for union, snaps in zip(steps, zip(*(snapshots(g) for g in cdgs))):
            want = calls(_encode(*merged_snapshot(snaps, universes)), full)

            def recording(nbrs, seeds):
                walks.append(nbrs is union.nbrs)  # the tail's walks read its class graph
                return reached(nbrs, seeds)

            with monkeypatch.context() as m:
                m.setattr(wl, "_reached", recording)
                assert calls(union, along) == want
            unions += 1
        assert list(along.items()) == list(full.items())
    # every union but a pair's first copies from the record, or none does
    assert sum(walks) == (unions - 20 if stable_first else 0)

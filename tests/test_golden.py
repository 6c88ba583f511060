"""Golden ids: the order in which color and signature ids are minted.

Saved target files refer to signature ids by value, so any rewrite of the
refinement kernel must mint exactly the same keys in exactly the same order.
The digests below were recorded from the full-recompute implementation on a
small seeded corpus (connected and disconnected pairs, plus one larger
isomorphic pair whose classes stay stable for many levels) and from
prefix-indicator targets over the approximation corpus.  Symbolic hidden
and state ids (state pairings are keyed in the same session) are pinned
on the same corpus, at stabilization and at two rounds.  The second half
of the file checks the kernel against a plain full-recompute reference kept
here, including the dictionary's whole key -> id map in insertion order.
"""

import hashlib
import json

import pytest

from cdgwl import (
    ADD,
    DELETE,
    EDGE,
    NODE,
    Cdg,
    CdynTarget,
    ColorDictionary,
    Event,
    GeneratorConfig,
    adjacency,
    attr_bytes,
    cut_trajectories,
    cwl,
    depth_bound,
    generate_isomorphic_pair,
    make_pair,
    snapshots,
    StartGraph,
    symbolic_state_trajectories,
    universe,
)
from cdgwl.experiments import approximation_corpus
from cdgwl.trees import stable_trajectories, tree_sig_levels, tree_sigs_stable
from cdgwl.wl import awl_stable, awl_step, merged_snapshot, partition_of, refine_at_depth
from conftest import A, B, snap


def golden_pairs():
    pairs = [make_pair(7, idx, n_nodes=6) for idx in range(6)]
    pairs += [make_pair(7, idx, n_nodes=6, disconnected=True) for idx in range(3)]
    cfg = GeneratorConfig(n_nodes=12, n_events=10, attr_values=2, p_start_edge=0.2)
    a, b, _ = generate_isomorphic_pair(cfg, seed=3)
    pairs.append((a, b))
    return pairs


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def cwl_ids(pairs):
    d = ColorDictionary()
    out = [
        [{v: list(t) for v, t in tr.items()} for tr in cwl(list(p), dictionary=d)] for p in pairs
    ]
    return out, len(d)


def cut_ids(pairs):
    d = ColorDictionary()
    out = []
    for p in pairs:
        trajs = cut_trajectories(list(p), dictionary=d)
        out.append([{v: [t.depth, list(t.sigs)] for v, t in tr.items()} for tr in trajs])
    return out, len(d)


def stable_ids(pairs):
    d = ColorDictionary()
    out = []
    for g1, g2 in pairs:
        colors, sigs = stable_trajectories(g1, g2, dictionary=d)
        out.append([[*k, list(colors[k]), list(sigs[k])] for k in sorted(colors)])
    return out, len(d)


def symbolic_ids(pairs):
    d = ColorDictionary()
    out = []
    for layers in (None, 2):
        for p in pairs:
            hidden, states = symbolic_state_trajectories(list(p), dictionary=d, layers=layers)
            out.append([[hidden[gi], states[gi]] for gi in range(len(p))])
    return out, len(d)


def target_json():
    corpus = approximation_corpus(7, 6)
    return "\n".join(
        CdynTarget.prefix_indicator(corpus, gi, universe(g)[0]).to_json()
        for gi, g in enumerate(corpus)
    )


GOLDEN = {
    "cwl": ("690491013170a17a540b8c25b0023d679098380f21335340a0a4644e6da97a3a", 182),
    "cut": ("e183f2436601af345566153c5bed622993384dfd6b6c020d670d5a8b824181c9", 1144),
    "stable": ("2a8fb5a815f0a0ac2649ae99ff6215f651280a05f2447d2d23299e766120a207", 356),
    "symbolic": ("56cfe6276d42ee75146b9ddb477d75a0b7b702d7d43a6c7be5bdddbe8762495b", 462),
    "target": "c05ab76cf8a6310efc7ad054fc52e08895000f5cca1329d2272ab749e3b432da",
}


def test_cwl_color_ids_are_pinned():
    ids, n_keys = cwl_ids(golden_pairs())
    assert (digest(ids), n_keys) == GOLDEN["cwl"]


def test_cut_signature_ids_are_pinned():
    ids, n_keys = cut_ids(golden_pairs())
    assert (digest(ids), n_keys) == GOLDEN["cut"]


def test_stable_trajectory_ids_are_pinned():
    ids, n_keys = stable_ids(golden_pairs())
    assert (digest(ids), n_keys) == GOLDEN["stable"]


def test_symbolic_state_ids_are_pinned():
    ids, n_keys = symbolic_ids(golden_pairs())
    assert (digest(ids), n_keys) == GOLDEN["symbolic"]


def test_target_json_is_pinned():
    text = target_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN["target"]


# ---------------------------------------------------------------------------
# Full-recompute reference: every level recomputed for every node.


def ref_round(snapshot, prev, dictionary, tree):
    adj = adjacency(snapshot)
    nxt = {}
    for v in sorted(prev):
        if v not in snapshot.nodes:
            nxt[v] = 0
            continue
        ms = sorted((attr_bytes(w), prev[u]) for u, w in adj[v])
        own = attr_bytes(snapshot.nodes[v]) if tree else prev[v]
        # one flat key: (tag, self part, w1, id1, w2, id2, ...)
        nxt[v] = dictionary.id_of(("t" if tree else "c", own, *(x for pair in ms for x in pair)))
    return nxt


def ref_levels(snapshot, universe_, dictionary, max_depth, tree):
    tag0 = "t0" if tree else "c0"
    levels = [
        {
            v: dictionary.id_of((tag0, attr_bytes(snapshot.nodes[v]))) if v in snapshot.nodes else 0
            for v in sorted(universe_)
        }
    ]
    for _ in range(max_depth):
        levels.append(ref_round(snapshot, levels[-1], dictionary, tree))
    return levels


def ref_stable(snapshot, universe_, dictionary, tree):
    cur = ref_levels(snapshot, universe_, dictionary, 0, tree)[0]
    depth = 0
    for _ in range(len(universe_)):
        nxt = ref_round(snapshot, cur, dictionary, tree)
        depth += 1
        done = partition_of(nxt) == partition_of(cur)
        cur = nxt
        if done:
            break
    return cur, depth


def isolated_snapshot():
    """Two isolated live nodes next to a path; one edge attribute differs."""
    return snap(
        {"a": A, "b": A, "c": A, "d": B, "i": A, "j": A},
        {("a", "b"): A, ("b", "c"): A, ("c", "d"): B},
    )


def dead_snapshot():
    """Live star with leaves; ``ghost`` and ``zz`` are in the universe but dead."""
    return snap({"a": A, "b": A, "c": A, "x": B}, {("x", "a"): A, ("x", "b"): A, ("x", "c"): B})


HAND_CASES = [
    (isolated_snapshot(), ["a", "b", "c", "d", "i", "j"]),
    (dead_snapshot(), ["a", "b", "c", "ghost", "x", "zz"]),
    (snap({}), []),
]


def merged_cases():
    for g1, g2 in golden_pairs()[-4:]:
        universes = [universe(g1), universe(g2)]
        for s1, s2 in zip(snapshots(g1), snapshots(g2)):
            yield merged_snapshot([s1, s2], universes)


@pytest.mark.parametrize("tree", [True, False])
@pytest.mark.parametrize("case", range(len(HAND_CASES)))
def test_kernel_matches_reference_on_hand_snapshots(case, tree):
    s, us = HAND_CASES[case]
    for max_depth in (0, 1, 3, 2 * len(us) + 1):
        got_d, ref_d = ColorDictionary(), ColorDictionary()
        ref = ref_levels(s, us, ref_d, max_depth, tree)
        if tree:
            assert tree_sig_levels(s, us, got_d, max_depth) == ref
        else:
            assert refine_at_depth(s, us, got_d, max_depth) == ref[-1]
        assert list(got_d.items()) == list(ref_d.items())


def test_kernel_matches_reference_in_one_shared_session():
    got_d, ref_d = ColorDictionary(), ColorDictionary()
    for s, joint in merged_cases():
        max_depth = 2 * len(joint) + 1
        ref = ref_levels(s, joint, ref_d, max_depth, True)
        assert tree_sig_levels(s, joint, got_d, max_depth) == ref
        # A shallower call after a deep one mixes depths in the session.
        assert tree_sig_levels(s, joint, got_d, 3) == ref_levels(s, joint, ref_d, 3, True)
        colors = refine_at_depth(s, joint, got_d, 3)
        assert colors == ref_levels(s, joint, ref_d, 3, False)[-1]
        assert awl_step(s, colors, got_d) == ref_round(s, colors, ref_d, False)
        assert awl_stable(s, joint, got_d) == ref_stable(s, joint, ref_d, False)
        assert tree_sigs_stable(s, joint, got_d) == ref_stable(s, joint, ref_d, True)
    assert list(got_d.items()) == list(ref_d.items())


# ---------------------------------------------------------------------------
# Tail blocks whose class set grows: cut sessions against the reference.


def ref_session_call(graphs, depth, dictionary, tree):
    """Per-timestamp depth-``depth`` ids of the merged snapshots, as trajectories."""
    universes = [universe(g) for g in graphs]
    levels = [
        ref_levels(*merged_snapshot(list(snaps), universes), dictionary, depth, tree)[-1]
        for snaps in zip(*map(snapshots, graphs))
    ]
    return [
        {v: tuple(ids[(gi, v)] for ids in levels) for v in us} for gi, us in enumerate(universes)
    ]


def check_session(calls, tree=True):
    """Run ``(graphs, depth)`` calls in one session and the reference in another.

    Trees go through ``cut_trajectories``, colors through ``cwl``.  Every
    trajectory, the whole key -> id map in id order, and ``id_of`` on every
    expanded key must agree with the full recompute.
    """
    got_d, ref_d = ColorDictionary(), ColorDictionary()
    for graphs, depth in calls:
        if tree:
            if depth is None:
                depth = depth_bound(max(len(universe(g)) for g in graphs))
            trajs = cut_trajectories(graphs, depth=depth, dictionary=got_d)
            got = [{v: tr.sigs for v, tr in m.items()} for m in trajs]
        else:
            got = cwl(graphs, depth=depth, dictionary=got_d)
        assert got == ref_session_call(graphs, depth, ref_d, tree)
    items = list(got_d.items())
    assert items == list(ref_d.items())
    for key, i in items:
        assert got_d.id_of(key) == i
    assert len(got_d) == len(ref_d)


def labelled_path(names, first):
    """A path over ``names`` whose attributes count up from ``first``."""
    nodes = {v: (float(first + i),) for i, v in enumerate(names)}
    return nodes, {(u, v): (0.0,) for u, v in zip(names, names[1:])}


def marked_path_cdg(n=12):
    """A labelled path with a marker ``m`` at one end that late events move to the other.

    Every attribute differs, so the stable level is 1.  When the marker
    leaves ``v00`` (t=2) only ``v00`` gets a fresh id at level 1; ``v01`` ..
    ``v11`` repeat the ids the call at t=1 held, so one component floods over
    eleven levels with one holder.  Re-attaching it at ``v11`` (t=3) floods
    from both path ends.
    """
    names = [f"v{i:02d}" for i in range(n)]
    nodes, edges = labelled_path(names, 0)
    nodes["m"], edges[("m", names[0])] = (-1.0,), (0.0,)
    return Cdg(StartGraph(nodes, edges), (
        Event(1.0, NODE, "x", ADD, (5.5,)),
        Event(2.0, EDGE, ("m", names[0]), DELETE),
        Event(3.0, EDGE, ("m", names[-1]), ADD, (0.0,)),
    ))


@pytest.mark.parametrize("depth", [None, 6])
def test_a_flood_with_one_holder_mints_the_full_recompute_ids(depth):
    # at the decisive depth (25) the front reaches the whole path; at depth 6
    # the block ends while its far classes still repeat their holder's ids
    check_session([([marked_path_cdg()], depth)])


def test_a_color_flood_with_one_holder_mints_the_full_recompute_ids():
    # a color key holds the class's own previous id, so a class the front
    # reaches keys on its holder's id and a fresh neighbour's
    graphs = [marked_path_cdg()]
    check_session([(graphs, 11), (graphs, 3), (graphs, 25)], tree=False)


def test_a_component_with_two_holders_mints_the_full_recompute_ids():
    # a-b-c-d-e repeats the first call's ids and g-h-i-j the second's; x and
    # its neighbours e and f are fresh, so the component is keyed level by
    # level until freshness has spread across it
    p1 = labelled_path(["a", "b", "c", "d", "e"], 0)
    p2 = labelled_path(["f", "g", "h", "i", "j"], 5)
    joined = Cdg(StartGraph(
        {**p1[0], **p2[0], "x": (10.0,)},
        {**p1[1], **p2[1], ("e", "x"): (0.0,), ("f", "x"): (0.0,)},
    ))
    calls = [[Cdg(StartGraph(*p1))], [Cdg(StartGraph(*p2))], [joined]]
    check_session([(graphs, 15) for graphs in calls])


@pytest.mark.parametrize("case", ["marked path", "desk pair"])
def test_a_depth_3_call_after_depth_11_calls_mints_the_full_recompute_ids(case):
    graphs = [marked_path_cdg()] if case == "marked path" else list(make_pair(0, 3, n_nodes=6))
    check_session([(graphs, 11), (graphs, 3)])


def test_a_deeper_call_does_not_follow_a_shallower_holder():
    # the depth-3 calls hold the repeated ids first; the depth-11 calls
    # must key past level 3 instead of copying them
    graphs = [marked_path_cdg()]
    check_session([(graphs, 3), (graphs, 11)])

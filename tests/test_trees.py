"""Unfolding trees: explicit oracle vs memoized signatures, depth bounds."""

import pytest

import cdgwl
from cdgwl import (
    Cdg,
    ColorDictionary,
    CutVerdict,
    EMPTY_TREE,
    GeneratorConfig,
    InvalidBoundError,
    UnfoldingTree,
    cut_trajectories,
    cwl,
    depth_bound,
    generate,
    generate_isomorphic_pair,
    graph_cut_equivalent,
    make_pair,
    replay,
    signature,
    six_cycle,
    snapshots,
    two_triangles,
    unfolding_tree,
    universe,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
)
from cdgwl.trees import stable_trajectories, tree_sig_levels, tree_sigs_at_depth, tree_sigs_stable
from cdgwl.wl import awl_stable, merged_snapshot, partition_of, refine_at_depth
from conftest import A, B, delete_readd_cdg, path3, snap


def test_explicit_tree_shapes():
    s = path3()
    t0 = unfolding_tree(s, "b", 0)
    assert t0.attr == A and t0.children == ()
    t1 = unfolding_tree(s, "b", 1)
    assert len(t1.children) == 2
    assert unfolding_tree(s, "ghost", 3) is EMPTY_TREE
    with pytest.raises(ValueError):
        unfolding_tree(s, "b", -1)


def test_signature_ignores_child_order():
    left = UnfoldingTree(A, ((A, UnfoldingTree(A)), (B, UnfoldingTree(B))))
    right = UnfoldingTree(A, ((B, UnfoldingTree(B)), (A, UnfoldingTree(A))))
    assert signature(left) == signature(right)
    other = UnfoldingTree(A, ((A, UnfoldingTree(B)), (B, UnfoldingTree(A))))
    assert signature(other) != signature(left)


def test_signature_distinguishes_multiplicity():
    one = UnfoldingTree(A, ((A, UnfoldingTree(A)),))
    two = UnfoldingTree(A, ((A, UnfoldingTree(A)), (A, UnfoldingTree(A))))
    assert signature(one) != signature(two)


def test_memoized_ids_match_explicit_signatures():
    # oracle: id equality at depth d == byte equality of materialized trees
    for seed in range(12):
        g = generate(GeneratorConfig(n_nodes=5, n_events=4, dim=1 + seed % 2), seed=seed)
        us = universe(g)
        for s in snapshots(g):
            for depth in (0, 1, 2, 3):
                ids = tree_sigs_at_depth(s, us, ColorDictionary(), depth)
                raw = {v: signature(unfolding_tree(s, v, depth)) for v in us}
                for x in us:
                    for y in us:
                        assert (ids[x] == ids[y]) == (raw[x] == raw[y])


def test_absent_nodes_carry_empty_signature():
    g = delete_readd_cdg()
    trajs = cut_trajectories([g])[0]
    assert trajs["b"].sigs[1] == 0
    assert trajs["b"].sigs[0] != 0


def test_per_depth_tree_and_color_partitions_coincide():
    for seed in range(8):
        g = generate(GeneratorConfig(n_nodes=6, n_events=3), seed=100 + seed)
        us = universe(g)
        for s in snapshots(g):
            for depth in range(depth_bound(len(us)) + 1):
                sigs = tree_sigs_at_depth(s, us, ColorDictionary(), depth)
                colors = refine_at_depth(s, us, ColorDictionary(), depth)
                assert partition_of(sigs) == partition_of(colors)


def test_depth_bound_values():
    assert depth_bound(6) == 11
    assert depth_bound(6, both_disconnected=True) == 9
    assert depth_bound(1) == 1
    assert depth_bound(2, both_disconnected=True) == 1
    with pytest.raises(InvalidBoundError):
        depth_bound(0)
    with pytest.raises(InvalidBoundError):
        depth_bound(1, both_disconnected=True)


def test_tree_sigs_stable_matches_color_stabilization():
    s = path3()
    sigs, depth = tree_sigs_stable(s, ["a", "b", "c"], ColorDictionary())
    assert partition_of(sigs) == frozenset({frozenset({"a", "c"}), frozenset({"b"})})
    assert depth <= 3


def test_graph_cut_equivalence_on_permuted_copy():
    g1, g2, _ = generate_isomorphic_pair(GeneratorConfig(n_nodes=5, n_events=3), seed=3)
    verdict = graph_cut_equivalent(g1, g2)
    assert verdict.equivalent
    trajs = cut_trajectories([g1, g2])
    for v, w in verdict.bijection.items():
        assert trajs[0][v].sigs == trajs[1][w].sigs


def test_blind_spot_pair_is_cut_equivalent():
    assert graph_cut_equivalent(two_triangles(), six_cycle()).equivalent


def test_stable_trajectories_cover_joint_universe():
    g = delete_readd_cdg()
    color_tr, sig_tr = stable_trajectories(g, g)
    assert set(color_tr) == set(sig_tr) == {(0, "a"), (0, "b"), (1, "a"), (1, "b")}
    assert color_tr[(0, "a")] == color_tr[(1, "a")]
    assert sig_tr[(0, "b")] == sig_tr[(1, "b")]


def test_correspondence_verifier_on_sample():
    pairs = [make_pair(2, i) for i in range(25)]
    report = verify_cut_cwl_correspondence(pairs)
    assert report.ok
    assert report.pairs_checked == 25
    assert report.timestamps_checked >= 25
    fixed = verify_cut_cwl_correspondence(pairs[:5], depth=3)
    assert fixed.ok


def test_depth_bound_verifier_on_sample():
    pairs = [make_pair(3, i) for i in range(15)]
    report = verify_depth_bound(pairs, n_bound=6)
    assert report.ok and report.node_pairs_checked > 0
    disc = [make_pair(4, i, disconnected=True, mixed=False) for i in range(10)]
    report2 = verify_depth_bound(disc, n_bound=6)
    assert report2.ok
    assert report2.disconnected_timestamps > 0


def test_depth_bound_verifier_rejects_oversized_universe():
    pairs = [make_pair(5, 1, n_nodes=6)]
    with pytest.raises(InvalidBoundError):
        verify_depth_bound(pairs, n_bound=3)


def test_empty_tree_invariants():
    assert EMPTY_TREE.is_empty
    with pytest.raises(ValueError):
        UnfoldingTree(None, ((A, EMPTY_TREE),))
    assert signature(EMPTY_TREE) == b"E"


def test_default_depth_is_decisive_bound():
    g = snap({"a": A, "b": A}, {("a", "b"): A})
    from cdgwl import Cdg, StartGraph

    cdg = Cdg(StartGraph(dict(g.nodes), dict(g.edges)))
    trajs = cut_trajectories([cdg])
    assert trajs[0]["a"].depth == depth_bound(2)


def test_empty_graph_list_is_a_typed_error():
    from cdgwl import EmptyInputError

    with pytest.raises(EmptyInputError):
        cut_trajectories([])


def test_empty_universes_are_checked_and_equivalent():
    from cdgwl import Cdg, StartGraph

    g0 = Cdg(StartGraph({}, {}), [], dim=1)
    report = verify_cut_cwl_correspondence([(g0, g0)])
    assert report.ok and report.pairs_checked == 1 and report.timestamps_checked == 1
    assert cut_trajectories([g0, g0]) == [{}, {}]
    assert graph_cut_equivalent(g0, g0) == CutVerdict(True, {})


class CountingDictionary(ColorDictionary):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def id_of(self, key):
        self.calls += 1
        return super().id_of(key)


def n40_cut_session():
    """``cut_trajectories`` on the n=40/k=150 isomorphic pair (seed 0), counting ``id_of``."""
    config = GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1)
    a, b, _ = generate_isomorphic_pair(config, 0)
    dictionary = CountingDictionary()
    cut_trajectories([a, b], dictionary=dictionary)
    return dictionary


def test_cut_keys_a_quarter_of_the_levels_of_a_full_walk():
    """Past the stable level, components follow earlier chains or fill tail blocks.

    On this n=40/k=150 pair the walk over all 79 levels made 199 596
    ``id_of`` calls; the kernel makes 4 590 (see the test below).  Both
    mint the same 89 938 ids.
    """
    dictionary = n40_cut_session()
    assert len(dictionary) == 89938
    assert dictionary.calls <= 199596 // 4


def test_cut_id_of_calls_are_pinned():
    """A component whose repeated classes one earlier chain holds joins the block.

    Keying such a component level by level until freshness had spread
    across it made 10 786 ``id_of`` calls on this pair; counting its
    levels as the front grows made 5 782.  Keying, below the stable level,
    only the nodes next to a changed id instead of each event's hop ball
    made 4 594.  Running the tail only on the components an event reached
    makes 4 590, for the same 89 938 ids.
    """
    dictionary = n40_cut_session()
    assert (dictionary.calls, len(dictionary)) == (4590, 89938)


def test_every_session_key_is_one_flat_tuple():
    """A level key is ``(tag, self part, w1, id1, w2, id2, ...)``, stored or in a block.

    Every key ``items()`` yields, tail-block keys expanded, is a tuple
    holding no tuple, and ``id_of`` finds each one's id again.
    """
    config = GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1)
    a, b, _ = generate_isomorphic_pair(config, 0)
    dictionary = ColorDictionary()
    cut_trajectories([a, b], dictionary=dictionary)
    items = list(dictionary.items())
    assert len(items) == len(dictionary) == 89938 and dictionary._blocks
    for key, i in items:
        assert type(key) is tuple and not any(isinstance(x, tuple) for x in key), key
        assert dictionary.id_of(key) == i
    assert len(dictionary) == 89938


def test_every_level_read_keys_a_third_of_a_full_walk():
    """The read ``verify_depth_bound`` makes: every level, one session per pair.

    Over the merged snapshots of 200 desk pairs at depth 13, the walk over
    every level made 94 010 ``id_of`` calls; the tail makes 26 055.  Both
    mint the same 55 212 ids.
    """
    calls = minted = 0
    for idx in range(200):
        a, b = make_pair(1, idx, 6)
        dictionary = CountingDictionary()
        universes = [universe(a), universe(b)]
        for snaps in zip(snapshots(a), snapshots(b)):
            tree_sig_levels(*merged_snapshot(snaps, universes), dictionary, 13)
        calls += dictionary.calls
        minted += len(dictionary)
    assert minted == 55212
    assert calls <= 94010 // 3


NEGATIVE_DEPTH = {
    "refine_at_depth": lambda s, us: refine_at_depth(s, us, ColorDictionary(), -1),
    "tree_sigs_at_depth": lambda s, us: tree_sigs_at_depth(s, us, ColorDictionary(), -1),
    "tree_sig_levels": lambda s, us: tree_sig_levels(s, us, ColorDictionary(), -2),
    "unfolding_tree": lambda s, us: unfolding_tree(s, us[0], -1),
    "cwl": lambda s, us: cwl([delete_readd_cdg()], depth=-1),
    "cut_trajectories": lambda s, us: cut_trajectories([delete_readd_cdg()], depth=-1),
    "graph_cut_equivalent": lambda s, us: graph_cut_equivalent(
        delete_readd_cdg(), delete_readd_cdg(), depth=-1
    ),
}


@pytest.mark.parametrize("call", sorted(NEGATIVE_DEPTH))
def test_negative_depth_is_a_typed_error(call):
    with pytest.raises(InvalidBoundError, match="depth must be non-negative") as info:
        NEGATIVE_DEPTH[call](path3(), ["a", "b", "c"])
    assert isinstance(info.value, ValueError)


def test_a_start_graph_is_refined_as_its_zero_event_stream():
    # a static graph is a stream with no events: on the start graph taken as
    # one, the stream API mints the per-snapshot functions' ids for every live
    # node, each side in a fresh session; only the snapshot functions also
    # list the universe's absent nodes, as 0
    for i in range(100):
        g = make_pair(0, i)[0]
        static, s, us = Cdg(g.start, dim=g.dim), replay(g, 0.0), universe(g)

        def first(trajs):
            return {v: tr[0] for v, tr in trajs.items()}

        def live(ids):
            assert all(ids[v] == 0 for v in us if v not in s.nodes)
            return {v: ids[v] for v in s.nodes}

        stable, _ = awl_stable(s, us, ColorDictionary())
        assert first(cwl([static])[0]) == live(stable)
        colors = refine_at_depth(s, us, ColorDictionary(), 3)
        assert first(cwl([static], depth=3)[0]) == live(colors)
        for d in (0, 1, 3, depth_bound(len(us))):
            sigs = {v: tr.sigs for v, tr in cut_trajectories([static], depth=d)[0].items()}
            assert first(sigs) == live(tree_sigs_at_depth(s, us, ColorDictionary(), d))


SNAPSHOT_NAMES = {
    "wl": ("awl_init", "awl_step", "awl_stable", "refine_at_depth", "merged_snapshot",
           "partition_of"),
    "trees": ("tree_sigs_at_depth", "tree_sigs_stable", "stable_trajectories"),
}


def test_per_snapshot_functions_are_module_functions_only():
    # the package exports one API, over streams; the refinement kernel's
    # per-snapshot entry points stay callable in their modules
    public = dir(cdgwl)
    for module_name, names in SNAPSHOT_NAMES.items():
        for name in names:
            assert name not in public
            assert callable(getattr(getattr(cdgwl, module_name), name))
    assert "sgnn_forward" not in public and not hasattr(cdgwl.cgnn, "sgnn_forward")

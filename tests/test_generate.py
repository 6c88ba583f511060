"""Random stream generator and fixed demonstration graphs."""

import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from cdgwl import (
    Cdg,
    attr_bytes,
    GenerationExhaustedError,
    adjacency,
    GeneratorConfig,
    cdg_to_jsonl,
    check_isomorphism_witness,
    brute_force_isomorphic,
    compare_graphs,
    generate,
    generate_isomorphic_pair,
    is_disconnected,
    IDENTITY,
    RENAMING,
    relabel_cdg,
    replay,
    six_cycle,
    snapshots,
    StartGraph,
    timestamps,
    two_triangles,
    universe,
    validate_stream,
)
from cdgwl.experiments import make_pair, pair_config, sub_seed


def test_generation_is_byte_deterministic():
    cfg = GeneratorConfig(n_nodes=5, n_events=8, dim=2, attr_values=3)
    assert cdg_to_jsonl(generate(cfg, seed=7)) == cdg_to_jsonl(generate(cfg, seed=7))
    assert cdg_to_jsonl(generate(cfg, seed=7)) != cdg_to_jsonl(generate(cfg, seed=8))


@pytest.mark.parametrize("seed", range(25))
def test_generated_streams_are_valid(seed):
    cfg = GeneratorConfig(
        n_nodes=3 + seed % 4,
        n_events=seed % 7,
        dim=1 + seed % 2,
        attr_values=1 + seed % 3,
    )
    g = generate(cfg, seed=seed)
    assert validate_stream(g.start, g.events, g.dim) == []
    assert len(g.events) == cfg.n_events
    assert len(universe(g)) <= cfg.n_nodes
    assert g.dim == cfg.dim


def test_timestamps_strictly_increase():
    g = generate(GeneratorConfig(n_nodes=4, n_events=10), seed=3)
    ts = timestamps(g)
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("seed", range(10))
def test_disconnected_streams_stay_disconnected(seed):
    cfg = GeneratorConfig(n_nodes=6, n_events=6, ensure_disconnected=True)
    g = generate(cfg, seed=seed)
    for snap in snapshots(g):
        assert is_disconnected(snap)


def test_disconnected_needs_two_nodes():
    with pytest.raises(GenerationExhaustedError):
        generate(GeneratorConfig(n_nodes=1, ensure_disconnected=True), seed=0)


# The configs of the grid below that can never draw an event: two ids split
# into halves of one node each, with one attribute value.  A split over one id
# raises before any draw as well.
NO_EVENT_CONFIGS = {(2, 1, True, n_events) for n_events in (1, 2, 3)}


def test_a_config_that_can_never_draw_an_event_raises_at_once():
    # Every other config returns a full stream from one draw, which is what
    # lets ``generate`` draw each stream once.
    grid = itertools.product(
        range(1, 7), (1, 2, 3), (0.0, 0.5, 1.0), (False, True), range(1, 4), range(5)
    )
    for n_nodes, attr_values, p_start_edge, split, n_events, seed in grid:
        config = GeneratorConfig(n_nodes, n_events, attr_values=attr_values,
                                 p_start_edge=p_start_edge, ensure_disconnected=split)
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        try:
            g = generate(config, rng)
            outcome = "stream"
        except GenerationExhaustedError as exc:
            drawn = rng.bit_generator.state != before
            outcome, message = "after draws" if drawn else "at once", str(exc)
        if (n_nodes, attr_values, split, n_events) in NO_EVENT_CONFIGS:
            assert outcome == "at once" and "no event can ever be drawn" in message, config
        elif split and n_nodes == 1:
            assert outcome == "at once" and "at least 2 node ids" in message, config
        else:
            assert outcome == "stream" and len(g.events) == n_events, (config, seed)


def test_zero_event_config():
    g = generate(GeneratorConfig(n_nodes=3, n_events=0), seed=1)
    assert len(g.events) == 0


def test_isomorphic_pair_has_checkable_witness():
    cfg = GeneratorConfig(n_nodes=5, n_events=5, dim=2, attr_values=2)
    g1, g2, mapping = generate_isomorphic_pair(cfg, seed=4)
    assert set(mapping) == set(universe(g1))
    assert sorted(mapping.values()) == list(universe(g2))
    assert check_isomorphism_witness(g1, g2, mapping, IDENTITY)
    assert brute_force_isomorphic(g1, g2, IDENTITY).isomorphic
    assert compare_graphs(g1, g2).equivalent


def test_isomorphic_pair_is_relabelling():
    g1, g2, mapping = generate_isomorphic_pair(GeneratorConfig(n_nodes=4), seed=9)
    assert cdg_to_jsonl(relabel_cdg(g1, mapping)) == cdg_to_jsonl(g2)


def test_attr_renamed_pair_needs_renaming_mode():
    cfg = GeneratorConfig(n_nodes=4, n_events=4, attr_values=3)
    g1, g2, _ = generate_isomorphic_pair(cfg, seed=5, rename_attrs=True)
    assert not brute_force_isomorphic(g1, g2, IDENTITY).isomorphic
    assert brute_force_isomorphic(g1, g2, RENAMING).isomorphic


# a and b share attribute (1.0,), c holds (2.0,) and so does the edge a - c
MERGEABLE = Cdg(StartGraph({"a": (1.0,), "b": (1.0,), "c": (2.0,)}, {("a", "c"): (1.0,)}))


@pytest.mark.parametrize(
    "node_map, attr_map, message",
    [
        ({"a": "x", "b": "x", "c": "y"}, None, "node_map maps both 'a' and 'b' to 'x'"),
        ({"a": "x", "c": "y"}, None, "node_map misses node 'b'"),
        # (2.0,) is left out, so it maps to itself as well
        ({v: v for v in "abc"}, {(1.0,): (2.0,)}, "attr_map maps both (1.0,) and (2.0,) to (2.0,)"),
    ],
)
def test_relabelling_never_merges_or_drops_silently(node_map, attr_map, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        relabel_cdg(MERGEABLE, node_map, attr_map)


def test_relabelling_accepts_a_swap_of_ids_and_values():
    swap = {(1.0,): (2.0,), (2.0,): (1.0,)}
    swapped = relabel_cdg(MERGEABLE, {"a": "c", "b": "b", "c": "a"}, swap)
    assert swapped.start.nodes == {"a": (1.0,), "b": (2.0,), "c": (2.0,)}
    assert swapped.start.edges == {("a", "c"): (2.0,)}


# a holds (0.0,) and b holds (-0.0,): two values, bit for bit
SIGNED_ZEROS = Cdg(StartGraph({"a": (0.0,), "b": (-0.0,)}, {("a", "b"): (1.0,)}))


def _bits(cdg_):
    return {v: attr_bytes(a) for v, a in cdg_.start.nodes.items()}


@pytest.mark.parametrize(
    "attr_map, image",
    [
        ({(0.0,): (5.0,)}, (5.0,)),
        # the literal holds one key, (0.0,) -> (6.0,), since -0.0 == 0.0
        ({(0.0,): (5.0,), (-0.0,): (6.0,)}, (6.0,)),
    ],
)
def test_relabelling_rewrites_only_the_bitwise_equal_value(attr_map, image):
    renamed = relabel_cdg(SIGNED_ZEROS, {"a": "a", "b": "b"}, attr_map)
    assert _bits(renamed) == {"a": attr_bytes(image), "b": attr_bytes((-0.0,))}
    assert brute_force_isomorphic(SIGNED_ZEROS, renamed, RENAMING).isomorphic


def test_relabelling_never_merges_bitwise_distinct_values():
    # (0.0,) -> (-0.0,) while (-0.0,) maps to itself
    with pytest.raises(ValueError, match=re.escape("attr_map maps both (0.0,) and (-0.0,)")):
        relabel_cdg(SIGNED_ZEROS, {"a": "a", "b": "b"}, {(0.0,): (-0.0,)})


def test_fixed_demonstration_graphs():
    tri, cyc = two_triangles(), six_cycle()
    for g in (tri, cyc):
        assert validate_stream(g.start, g.events, g.dim) == []
        assert len(universe(g)) == 6
        assert g.events == ()
        snap = replay(g, 0.0)
        adj = adjacency(snap)
        assert all(len(adj[v]) == 2 for v in snap.nodes)
    assert is_disconnected(replay(tri, 0.0))
    assert not is_disconnected(replay(cyc, 0.0))
    assert not brute_force_isomorphic(tri, cyc, IDENTITY).isomorphic


def test_node_ids_use_stable_scheme():
    g = generate(GeneratorConfig(n_nodes=4, n_events=6), seed=11)
    assert all(v.startswith("n") and v[1:].isdigit() for v in universe(g))


@pytest.mark.parametrize(
    "field, value",
    [("n_nodes", 0), ("n_nodes", -2), ("n_events", -1), ("dim", 0), ("attr_values", 0)],
)
def test_out_of_range_generator_sizes_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least"):
        GeneratorConfig(**{field: value})


@pytest.mark.parametrize("p", [2.0, -0.1, float("nan")])
def test_an_edge_chance_outside_the_unit_interval_is_rejected(p):
    # 2.0 would link every pair and NaN none, each without a word
    with pytest.raises(ValueError, match=r"p_start_edge must lie in \[0, 1\]"):
        GeneratorConfig(p_start_edge=p)


# Edge-case configs: one attribute value, no or all start edges, the
# smallest disconnected universes, and one config with no drawable event.
PINNED_CONFIGS = [
    GeneratorConfig(3, 6, attr_values=1),
    GeneratorConfig(4, 8, p_start_edge=0.0),
    GeneratorConfig(4, 8, dim=2, attr_values=2, p_start_edge=1.0),
    GeneratorConfig(2, 6, ensure_disconnected=True),
    GeneratorConfig(3, 8, attr_values=2, ensure_disconnected=True),
    GeneratorConfig(3, 6, attr_values=1, p_start_edge=1.0, ensure_disconnected=True),
    GeneratorConfig(6, 12, attr_values=3, p_start_edge=0.0, ensure_disconnected=True),
    GeneratorConfig(2, 3, attr_values=1, ensure_disconnected=True),
    GeneratorConfig(6, 10),
]


def test_generated_bytes_are_pinned():
    h = hashlib.sha256()
    for cfg in PINNED_CONFIGS:
        for seed in range(40):
            try:
                text = cdg_to_jsonl(generate(cfg, seed))
            except GenerationExhaustedError:
                text = "GenerationExhaustedError\n"
            h.update(text.encode())
    assert h.hexdigest() == "630764637e6b0616f70c5fb9e6f425843af91d90a3d0e0021b0485a96ecaa427"


def test_experiment_corpora_are_pinned():
    # The desk corpora as the experiments draw them, both splits, plus the
    # isomorphic pairs' node mappings: the shuffle draws from the Generator
    # that `generate` leaves behind, so the mappings pin its state as well.
    h = hashlib.sha256()
    for seed in (0, 1):
        for disconnected in (False, True):
            for idx in range(300):
                for g in make_pair(seed, idx, 6, disconnected=disconnected):
                    h.update(cdg_to_jsonl(g).encode())
        for idx in range(100):
            _, _, mapping = generate_isomorphic_pair(pair_config(idx), sub_seed(seed, idx, 0))
            h.update(json.dumps(sorted(mapping.items())).encode())
    assert h.hexdigest() == "17cb23d934d205deebcfdf9032816b5dbfd1aea7c9720da4a488b1ffc6f6f3bb"

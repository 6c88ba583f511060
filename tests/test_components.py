"""Component decomposition and two-granularity matching."""

import dataclasses
import hashlib
import json

from cdgwl import (
    components,
    is_disconnected,
    make_pair,
    match_components,
    snapshots,
    six_cycle,
    two_triangles,
)
from conftest import A, B, path3, snap


def test_path_is_one_component():
    part = components(path3())
    assert part.components == (("a", "b", "c"),)
    assert not is_disconnected(path3())
    assert part.index == {"a": 0, "b": 0, "c": 0}


def test_isolated_node_splits_off():
    s = snap({"a": A, "b": A, "c": A}, {("a", "b"): A})
    part = components(s)
    assert part.components == (("a", "b"), ("c",))
    assert is_disconnected(s)


def test_empty_snapshot_counts_connected():
    s = snap({})
    assert components(s).components == ()
    assert not is_disconnected(s)


def test_matching_identical_snapshots():
    v = match_components(path3(), path3())
    assert v.class_counts_match and v.component_counts_match
    assert v.bijection == ((0, 0),)


def test_blind_spot_pair_splits_granularities():
    s1 = snapshots(two_triangles())[0]
    s2 = snapshots(six_cycle())[0]
    v = match_components(s1, s2)
    assert v.class_counts_match
    assert not v.component_counts_match
    assert v.bijection is None
    (cls,) = v.classes
    assert cls["nodes_a"] == cls["nodes_b"] == 6


def test_component_bijection_pairs_equal_multisets():
    left = snap(
        {"a": A, "b": A, "c": B},
        {("a", "b"): A},
    )
    right = snap(
        {"x": B, "y": A, "z": A},
        {("y", "z"): A},
    )
    v = match_components(left, right)
    assert v.component_counts_match and v.class_counts_match
    assert len(v.bijection) == 2
    lparts, rparts = components(left), components(right)
    for i, j in v.bijection:
        assert len(lparts.components[i]) == len(rparts.components[j])


def test_class_level_detects_count_mismatch():
    left = snap({"a": A, "b": A})
    right = snap({"x": A})
    v = match_components(left, right)
    assert not v.class_counts_match
    assert not v.component_counts_match


def test_match_components_is_pinned():
    snap_pairs = []
    for disconnected in (False, True):
        for i in range(40):
            a, b = make_pair(0, i, disconnected=disconnected)
            snap_pairs += zip(snapshots(a), snapshots(b))
    tri, cyc = snapshots(two_triangles())[0], snapshots(six_cycle())[0]
    snap_pairs += [(tri, cyc), (cyc, tri)]
    verdicts = [dataclasses.astuple(match_components(s1, s2)) for s1, s2 in snap_pairs]
    assert (len(verdicts), sum(v[1] for v in verdicts)) == (282, 56)
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "78cfd2b33b33ec42414f434df079a593c8bf180c2768f5045e1f88342bf23281"

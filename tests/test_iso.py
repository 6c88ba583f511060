"""Brute-force isomorphism oracle and witness verification."""

import hashlib
import json

import pytest

from cdgwl import (
    Cdg,
    GeneratorConfig,
    IDENTITY,
    RENAMING,
    StartGraph,
    TimestampMismatchError,
    TooLargeError,
    brute_force_isomorphic,
    check_isomorphism_witness,
    generate,
    generate_isomorphic_pair,
    make_pair,
    sub_seed,
    six_cycle,
    two_triangles,
    universe,
)
from cdgwl.experiments import pair_config
from conftest import A, churn_cdg


def test_reflexivity_with_identity_witness():
    for seed in range(5):
        g = generate(GeneratorConfig(n_nodes=5, n_events=5), seed=seed)
        ident = {v: v for v in universe(g)}
        assert check_isomorphism_witness(g, g, ident, IDENTITY)
        assert brute_force_isomorphic(g, g, IDENTITY).isomorphic


def test_permuted_copy_found_and_witnessed():
    for seed in range(8):
        cfg = GeneratorConfig(n_nodes=5, n_events=4, dim=1 + seed % 2)
        g1, g2, mapping = generate_isomorphic_pair(cfg, seed=seed)
        assert check_isomorphism_witness(g1, g2, mapping, IDENTITY)
        verdict = brute_force_isomorphic(g1, g2, IDENTITY)
        assert verdict.isomorphic
        assert check_isomorphism_witness(g1, g2, verdict.mapping, IDENTITY)


def test_symmetry_of_verdicts():
    cfg = GeneratorConfig(n_nodes=4, n_events=3)
    for seed in range(5):
        g1 = generate(cfg, seed=seed)
        g2 = generate(cfg, seed=seed + 50)
        assert (
            brute_force_isomorphic(g1, g2, IDENTITY).isomorphic
            == brute_force_isomorphic(g2, g1, IDENTITY).isomorphic
        )


def test_blind_spot_pair_refuted():
    verdict = brute_force_isomorphic(two_triangles(), six_cycle(), IDENTITY)
    assert not verdict.isomorphic
    assert verdict.mapping is None


def test_star_vs_path_refuted_by_degrees():
    star = Cdg(StartGraph({v: A for v in "xabc"}, {("x", c): A for c in "abc"}))
    path = Cdg(
        StartGraph(
            {v: A for v in "pqrs"},
            {("p", "q"): A, ("q", "r"): A, ("r", "s"): A},
        )
    )
    assert not brute_force_isomorphic(star, path, IDENTITY).isomorphic


def test_renaming_mode_accepts_consistent_recoloring():
    g1, g2, mapping = generate_isomorphic_pair(
        GeneratorConfig(n_nodes=4, n_events=4), seed=2, rename_attrs=True
    )
    assert check_isomorphism_witness(g1, g2, mapping, RENAMING)
    assert brute_force_isomorphic(g1, g2, RENAMING).isomorphic
    assert not brute_force_isomorphic(g1, g2, IDENTITY).isomorphic


def test_renaming_must_be_functional_and_injective():
    # same attribute mapped two ways at one timestamp -> no witness
    g1 = Cdg(StartGraph({"a": (1.0,), "b": (1.0,)}, {}))
    g2 = Cdg(StartGraph({"a": (2.0,), "b": (3.0,)}, {}))
    assert not check_isomorphism_witness(g1, g2, {"a": "a", "b": "b"}, RENAMING)
    # two attributes collapsed into one -> not injective
    g3 = Cdg(StartGraph({"a": (1.0,), "b": (2.0,)}, {}))
    g4 = Cdg(StartGraph({"a": (5.0,), "b": (5.0,)}, {}))
    assert not check_isomorphism_witness(g3, g4, {"a": "a", "b": "b"}, RENAMING)


@pytest.mark.parametrize("check", [check_isomorphism_witness, brute_force_isomorphic])
def test_an_unknown_attribute_mode_is_rejected(check):
    # a mode typo in the witness check once applied the renaming rules:
    # it accepted this attribute-renamed copy, which identity mode refutes
    g1, g2, mapping = generate_isomorphic_pair(
        GeneratorConfig(n_nodes=4, n_events=4), seed=2, rename_attrs=True
    )
    assert not check_isomorphism_witness(g1, g2, mapping, IDENTITY)
    args = (mapping,) if check is check_isomorphism_witness else ()
    with pytest.raises(ValueError, match="unknown attribute mode 'Identity'"):
        check(g1, g2, *args, mode="Identity")


def test_witness_rejects_wrong_mapping():
    g1, g2, mapping = generate_isomorphic_pair(GeneratorConfig(n_nodes=4, n_events=3), seed=9)
    us = universe(g1)
    if len(us) >= 2 and mapping[us[0]] != mapping[us[1]]:
        bad = dict(mapping)
        bad[us[0]], bad[us[1]] = bad[us[1]], bad[us[0]]
        assert not check_isomorphism_witness(g1, g2, bad, IDENTITY)


def test_guard_on_universe_size():
    big = Cdg(StartGraph({f"n{i}": A for i in range(9)}, {}))
    with pytest.raises(TooLargeError):
        brute_force_isomorphic(big, big, IDENTITY)


def test_timestamp_count_mismatch_raises():
    g1 = Cdg(StartGraph({"a": A}, {}))
    with pytest.raises(TimestampMismatchError):
        brute_force_isomorphic(g1, churn_cdg(), IDENTITY)


def test_universe_size_mismatch_is_refutation():
    g1 = Cdg(StartGraph({"a": A}, {}))
    g2 = Cdg(StartGraph({"a": A, "b": A}, {}))
    assert not brute_force_isomorphic(g1, g2, IDENTITY).isomorphic


def test_oracle_verdicts_and_mappings_are_pinned():
    pairs = [make_pair(0, i) for i in range(60)]
    pairs += [generate_isomorphic_pair(pair_config(i), sub_seed(0, i, 0))[:2] for i in range(40)]
    cfg = GeneratorConfig(n_nodes=5, n_events=5, attr_values=3)
    pairs += [generate_isomorphic_pair(cfg, seed, rename_attrs=True)[:2] for seed in range(20)]
    found = []
    for a, b in pairs:
        for mode in (IDENTITY, RENAMING):
            v = brute_force_isomorphic(a, b, mode)
            found.append([v.isomorphic, sorted(v.mapping.items()) if v.mapping else None])
    assert sum(f[0] for f in found) == 124
    digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
    assert digest == "5ce5cde8a4843eb8b5ac15e91f47a2600453be0eaebe958a92b148bd1e807359"

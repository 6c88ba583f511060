"""Experiment runners, report determinism, corpus round trips."""

import json

import pytest

from cdgwl import (
    EXPERIMENT_NAMES,
    CdgError,
    Report,
    check_comparable,
    cdg_to_jsonl,
    load_pair_corpus,
    load_stream_corpus,
    make_pair,
    run_experiment,
    sub_seed,
    write_pair_corpus,
    write_stream_corpus,
)
from cdgwl.errors import MalformedManifestError


def test_sub_seed_is_stable_and_keyed():
    a = sub_seed(3, 2, 0).generate_state(4).tolist()
    assert a == sub_seed(3, 2, 0).generate_state(4).tolist()
    assert a != sub_seed(3, 2, 1).generate_state(4).tolist()
    assert a != sub_seed(4, 2, 0).generate_state(4).tolist()


def test_make_pair_is_comparable_and_mixed():
    pairs = [make_pair(5, i) for i in range(10)]
    for a, b in pairs:
        check_comparable([a, b])
    iso = make_pair(5, 0)  # every 5th index is an isomorphic pair
    assert cdg_to_jsonl(iso[0]) != cdg_to_jsonl(iso[1])


TINY = {
    "cut-cwl": dict(pairs=6, n_nodes=4),
    "depth-bound": dict(pairs=6, disconnected_pairs=3, n_nodes=4),
    "iso-soundness": dict(pairs=4, n_nodes=4),
    "decomposition": dict(pairs=6, n_nodes=4),
    "expressivity": dict(pairs=3, seeds=2, layers=2, n_nodes=4),
    "approximation": dict(graphs=2, seeds=2, steps=1500, lr=0.3, goal=1e-2,
                          min_successes=2),
    "gradcheck": dict(probes=2, samples=20, tolerance=1e-4),
}


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_each_experiment_passes_at_small_scale(name):
    report = run_experiment(name, seed=0, **TINY[name])
    assert isinstance(report, Report)
    assert report.experiment == name
    assert report.passed, report.counterexamples[:3]
    assert report.wall_clock_seconds >= 0.0


def test_reports_are_canonical_modulo_wall_clock():
    r1 = run_experiment("cut-cwl", seed=2, pairs=5, n_nodes=4)
    r2 = run_experiment("cut-cwl", seed=2, pairs=5, n_nodes=4)
    assert r1.to_json(include_wall_clock=False) == r2.to_json(include_wall_clock=False)
    with_clock = json.loads(r1.to_json())
    assert "wall_clock_seconds" in with_clock
    without = json.loads(r1.to_json(include_wall_clock=False))
    assert "wall_clock_seconds" not in without


def test_parallel_run_matches_serial():
    r1 = run_experiment("depth-bound", seed=3, pairs=6, disconnected_pairs=2,
                        n_nodes=4, jobs=1)
    r2 = run_experiment("depth-bound", seed=3, pairs=6, disconnected_pairs=2,
                        n_nodes=4, jobs=2)
    assert r1.to_json(include_wall_clock=False) == r2.to_json(include_wall_clock=False)


def test_unknown_experiment_and_override_rejected():
    with pytest.raises(ValueError):
        run_experiment("no-such-thing", seed=0)
    with pytest.raises(ValueError):
        run_experiment("cut-cwl", seed=0, bogus_flag=3)


@pytest.mark.parametrize(
    "name, sizes, bad",
    [
        ("cut-cwl", {"pairs": -3}, "pairs"),
        ("decomposition", {"pairs": -1}, "pairs"),
        ("depth-bound", {"pairs": 0, "disconnected_pairs": 0}, "pairs"),
        ("depth-bound", {"disconnected_pairs": -1}, "disconnected_pairs"),
        ("gradcheck", {"samples": -4}, "samples"),
        ("gradcheck", {"probes": 0}, "probes"),
        ("approximation", {"steps": -1}, "steps"),
        ("expressivity", {"layers": 0}, "layers"),
    ],
)
def test_sizes_below_the_least_are_rejected(name, sizes, bad):
    with pytest.raises(ValueError, match=f"experiment {name!r}: {bad} must be at least"):
        run_experiment(name, seed=0, **sizes)


def test_zero_is_allowed_where_a_run_still_certifies():
    report = run_experiment("depth-bound", seed=0, pairs=2, disconnected_pairs=0)
    assert report.passed and report.results["pairs_checked"] == 2


def test_report_written_to_disk(tmp_path):
    out = tmp_path / "r.json"
    run_experiment("gradcheck", seed=1, probes=1, samples=10, out=out)
    obj = json.loads(out.read_text())
    assert obj["experiment"] == "gradcheck" and obj["passed"] is True


def test_pair_corpus_round_trip(tmp_path):
    d = tmp_path / "pairs"
    written = write_pair_corpus(d, seed=8, n_pairs=3, n_nodes=4)
    assert written["kind"] == "pairs" and written["n_pairs"] == 3
    loaded, manifest = load_pair_corpus(d)
    assert manifest == written
    fresh = [make_pair(8, i, n_nodes=4) for i in range(3)]
    for (a, b), (fa, fb) in zip(loaded, fresh):
        assert cdg_to_jsonl(a) == cdg_to_jsonl(fa)
        assert cdg_to_jsonl(b) == cdg_to_jsonl(fb)


def test_stream_corpus_round_trip(tmp_path):
    d = tmp_path / "streams"
    write_stream_corpus(d, seed=9, n_streams=4)
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["kind"] == "streams" and manifest["n_streams"] == 4
    loaded, _ = load_stream_corpus(d)
    assert len(loaded) == 4
    for g in loaded:
        check_comparable([g])


def test_corpus_loaders_reject_wrong_kind(tmp_path):
    d = tmp_path / "c"
    write_stream_corpus(d, seed=1, n_streams=1)
    with pytest.raises(ValueError):
        load_pair_corpus(d)


@pytest.mark.parametrize(
    "manifest, field",
    [
        ('{"streams": [{}]}', "streams[0].file"),
        ('{"streams": [{"file": 3}]}', "streams[0].file"),
        ('{"streams": ["a.jsonl"]}', "streams[0].file"),
        ('{"streams": {"file": "a.jsonl"}}', "streams"),
        ("[]", "streams"),
    ],
)
def test_stream_manifest_errors_name_the_field(tmp_path, manifest, field):
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(MalformedManifestError) as err:
        load_stream_corpus(tmp_path)
    assert err.value.field == field and f"'{field}'" in str(err.value)
    assert isinstance(err.value, CdgError) and isinstance(err.value, ValueError)


def test_pair_manifest_errors_name_the_field(tmp_path):
    manifest = '{"pairs": [{"a": "x.jsonl", "b": "y.jsonl"}, {"a": "z.jsonl"}]}'
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(MalformedManifestError) as err:
        load_pair_corpus(tmp_path)
    assert err.value.field == "pairs[1].b"

"""Experiment runners, report determinism, corpus round trips."""

import hashlib
import json
import math
from dataclasses import replace

import pytest

from cdgwl import (
    EXPERIMENT_NAMES,
    SHARED_DT,
    CdgError,
    GenerationExhaustedError,
    GeneratorConfig,
    Report,
    TrainResult,
    check_comparable,
    cdg_to_jsonl,
    cut_trajectories,
    expressivity_check,
    load_pair_corpus,
    load_stream_corpus,
    make_pair,
    run_experiment,
    sub_seed,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
    write_pair_corpus,
    write_stream_corpus,
)
from cdgwl import experiments
from cdgwl.errors import EmptyInputError, MalformedManifestError
from cdgwl.iso import IsoVerdict


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


@pytest.mark.parametrize(
    "name, sizes, jobs",
    [
        ("depth-bound", {"pairs": 6, "disconnected_pairs": 2, "n_nodes": 4}, 2),
        # the train seeds split into min(jobs, seeds) stacks: one of 3 at jobs=1,
        # then 2 + 1, then 1 + 1 + 1
        ("approximation", {"graphs": 3, "seeds": 3, "steps": 60, "min_successes": 0}, 2),
        ("approximation", {"graphs": 3, "seeds": 3, "steps": 60, "min_successes": 0}, 3),
    ],
)
def test_parallel_run_matches_serial(name, sizes, jobs):
    r1 = run_experiment(name, seed=3, jobs=1, **sizes)
    r2 = run_experiment(name, seed=3, jobs=jobs, **sizes)
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


@pytest.mark.parametrize(
    "name, sizes, message",
    [
        ("gradcheck", {"tolerance": -1.0}, "tolerance must be at least 0"),
        ("approximation", {"goal": -5.0, "lr": 0.3}, "goal must be positive"),
        ("approximation", {"goal": 0.0}, "goal must be positive"),
        ("approximation", {"lr": -3.0}, "lr must be positive"),
        ("approximation", {"lr": float("nan")}, "lr must be positive"),
        ("approximation", {"lr": float("inf")}, "lr must be positive and finite"),
    ],
)
def test_float_sizes_out_of_range_are_rejected(name, sizes, message):
    with pytest.raises(ValueError, match=f"experiment {name!r}: {message}"):
        run_experiment(name, seed=0, **sizes)


def test_nan_training_loss_fails_approximation(monkeypatch):
    def diverged(corpus, target, sgnn, temporal, steps, lr, seeds, goal, prefixes):
        return [TrainResult(None, float("nan"), steps, float("nan")) for _ in seeds]

    monkeypatch.setattr(experiments, "_train_stack", diverged)
    report = run_experiment("approximation", seed=0, **TINY["approximation"])
    assert not report.passed
    assert report.results["successes"] == 0
    assert [c["kind"] for c in report.counterexamples] == ["seed-missed-goal"] * 2


def test_nan_gradient_error_fails_gradcheck(monkeypatch):
    # probe 0's shared-dt check comes second, where max() over the checks would drop it
    def check(probe, sgnn, temporal, n_samples, seed):
        return float("nan") if (seed, temporal.mode) == (0, SHARED_DT) else 0.0

    monkeypatch.setattr(experiments, "gradient_check", check)
    report = run_experiment("gradcheck", seed=0, **TINY["gradcheck"])
    assert not report.passed
    assert math.isnan(report.results["max_relative_error"])
    assert [(c["probe"], c["mode"]) for c in report.counterexamples] == [(0, SHARED_DT)]


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


def test_a_manifest_that_is_not_json_names_its_file(tmp_path):
    (tmp_path / "manifest.json").write_text("{nope")
    for load in (load_stream_corpus, load_pair_corpus):
        with pytest.raises(MalformedManifestError, match="invalid JSON") as err:
            load(tmp_path)
        assert err.value.field is None and "manifest.json" in str(err.value)


def test_pair_manifest_errors_name_the_field(tmp_path):
    manifest = '{"pairs": [{"a": "x.jsonl", "b": "y.jsonl"}, {"a": "z.jsonl"}]}'
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(MalformedManifestError) as err:
        load_pair_corpus(tmp_path)
    assert err.value.field == "pairs[1].b"


# ---------------------------------------------------------------------------
# Report shapes, pinned by digest: the passing path, the counterexample path
# of every per-pair check, and the reduction rules of the trained experiments.


def _digest(report):
    return hashlib.sha256(report.to_json(include_wall_clock=False).encode()).hexdigest()


PASSING_DIGESTS = {
    ("cut-cwl", 0): "ef0104c2307c54b8aa8cec11f36da4e8695b0e11b51b6b93dafe47f7694f633f",
    ("cut-cwl", 1): "257a70c378f02ec9651309b0120c1552cca557cb38570923800ef4c07492edee",
    ("depth-bound", 0): "477302665700cf442a7c08aed376b0b0bbf06962db29f076b78926f35568f79f",
    ("depth-bound", 1): "c915fd899dee515ed0f394ae15ab2dbc2fd8ae680c0e635c37b976ece18e9184",
    ("iso-soundness", 0): "b663b4f0ec4008bccd51480b8484eaa59cc7a3965924b297c25f4aeb372dcb60",
    ("iso-soundness", 1): "428e81c90df6a7a49e9b071e2655a1a2b0d67bc0c799f72b254eb02f14825085",
    ("decomposition", 0): "997229a046aa88b03b24a46c264c6449fcb83801dbf823048beae6d79af30081",
    ("decomposition", 1): "0b15603cc431057d5bdc2e1c503017fef8637526ce7a553ebe139dfec8adcf87",
    ("expressivity", 0): "27bc95729a8b06fc93eb3605160f8deaad64ee1621f77ccf82fc8d7b3321803a",
    ("expressivity", 1): "4d771da716557fe0efc32e1c9e6739520f9908c5cb8f52a742adddd92ff8264f",
}


@pytest.mark.parametrize("name, seed", sorted(PASSING_DIGESTS))
def test_passing_report_is_pinned(name, seed):
    report = run_experiment(name, seed=seed, jobs=1, **TINY[name])
    assert report.passed
    assert _digest(report) == PASSING_DIGESTS[name, seed]


def _appending(real, field, entry):
    """``real`` with ``entry`` appended to the ``field`` list of its report."""

    def check(*args, **kwargs):
        report = real(*args, **kwargs)
        getattr(report, field).append(entry)
        return report

    return check


def _add_expressivity_faults(real):
    def check(*args, **kwargs):
        report = real(*args, **kwargs)
        report.symbolic_mismatches.append({"pair": 0})
        report.numeric_violations.append(
            {"seed": kwargs["base_seed"], "prefix_length": 1, "nodes": [[0, "n0"], [1, "n1"]]}
        )
        return report

    return check


FAULTS = {
    "cut-cwl": (
        "verify_cut_cwl_correspondence",
        lambda real: _appending(real, "mismatches", {"pair": 0, "timestamp_index": 1}),
    ),
    "depth-bound": (
        "verify_depth_bound",
        lambda real: _appending(real, "violations", {
            "pair": 0, "timestamp_index": 0, "nodes": [[0, "n0"], [1, "n1"]],
            "equal_at": 7, "diverged_at": 8,
        }),
    ),
    "iso-soundness": ("brute_force_isomorphic", lambda real: lambda *a, **k: IsoVerdict(False)),
    "decomposition": (
        "match_components",
        lambda real: lambda *a, **k: replace(real(*a, **k), class_counts_match=False),
    ),
    "expressivity": ("expressivity_check", _add_expressivity_faults),
}

FAILING_DIGESTS = {
    "cut-cwl": "fac2c3ba38490cb1a636412e6e42007fd9f020bc9d7850f31eb03605f335a75b",
    "depth-bound": "fb365e89234e25193b4caaf673865689f2ac32064373bf951fce4d7b70a545a4",
    "iso-soundness": "633e13f16f2c37b8c04904ff3623d045041ce062b5e0652329bbe4ad74f3d1b2",
    "decomposition": "59ee377f92572bfbb8aed9ecf7bca8f33cfc03f11897120f41ebdb497080e31e",
    "expressivity": "8050d4160d54bdc5e9fb28561a36d282fad9349c28adb0ff905f58855563a498",
}


@pytest.mark.parametrize("name", sorted(FAILING_DIGESTS))
def test_counterexample_report_is_pinned(name, monkeypatch):
    attr, fault = FAULTS[name]
    monkeypatch.setattr(experiments, attr, fault(getattr(experiments, attr)))
    report = run_experiment(name, seed=0, jobs=1, **TINY[name])
    assert not report.passed and report.counterexamples
    assert _digest(report) == FAILING_DIGESTS[name]


def test_gradcheck_counterexamples_are_the_checks_over_tolerance():
    report = run_experiment("gradcheck", seed=0, jobs=1, probes=1, samples=10, tolerance=0.0)
    by_text = lambda rows: sorted(rows, key=lambda r: json.dumps(r, sort_keys=True))
    assert not report.passed
    assert by_text(report.counterexamples) == by_text(report.results["checks"])
    assert report.results["max_relative_error"] == max(
        c["max_relative_error"] for c in report.results["checks"]
    )


@pytest.mark.parametrize("min_successes, missed", [(2, 2), (0, 0)])
def test_approximation_counts_missed_seeds_against_min_successes(min_successes, missed):
    report = run_experiment(
        "approximation", seed=0, jobs=1, graphs=2, seeds=2, steps=0,
        min_successes=min_successes,
    )
    kinds = [c["kind"] for c in report.counterexamples]
    assert kinds == ["seed-missed-goal"] * missed
    assert report.passed == (missed == 0)
    assert report.results["successes"] == 0 and report.results["required"] == min_successes
    assert [r["train_seed"] for r in report.results["runs"]] == [0, 1]


# SHA-256 over the repr of ``_approx_anchor`` on every approximation corpus of
# seeds 0-59 with 1, 2, 3 and 6 graphs, in that loop order.
ANCHOR_DIGEST = "59fc24e703d4d1a6086d29636c622c4167c99f1cbc77c0990acec1db89f641c1"


def test_approximation_anchors_are_pinned():
    digest, later = hashlib.sha256(), 0
    for seed in range(60):
        for graphs in (1, 2, 3, 6):
            prefixes = cut_trajectories(experiments.approximation_corpus(seed, graphs))
            anchor = experiments._approx_anchor(prefixes)
            digest.update(repr(anchor).encode())
            first = next(
                (gi, v) for gi, trajs in enumerate(prefixes)
                for v, traj in sorted(trajs.items()) if 0 not in traj.sigs
            )
            later += anchor != first
    assert digest.hexdigest() == ANCHOR_DIGEST
    assert later == 36  # the rule rejects a candidate's unrealizable indicator this often


@pytest.mark.parametrize("jobs", [0, -1])
def test_fewer_than_one_job_is_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment("cut-cwl", seed=0, jobs=jobs, pairs=1)


@pytest.mark.parametrize(
    "write, count", [(write_pair_corpus, 0), (write_pair_corpus, -2), (write_stream_corpus, 0)]
)
def test_empty_corpora_are_not_written(write, count, tmp_path):
    with pytest.raises(ValueError, match="needs at least 1"):
        write(tmp_path / "c", 0, count)
    assert not (tmp_path / "c").exists()


UNDRAWABLE_CORPORA = {
    "pairs": lambda d: write_pair_corpus(d, 0, 3, n_nodes=1, disconnected=True),
    "streams": lambda d: write_stream_corpus(
        d, 0, 3, GeneratorConfig(n_nodes=2, ensure_disconnected=True, attr_values=1)
    ),
}


@pytest.mark.parametrize("kind", sorted(UNDRAWABLE_CORPORA))
def test_a_corpus_the_generator_rejects_leaves_no_directory(kind, tmp_path):
    # every stream is drawn before the directory is made
    with pytest.raises(GenerationExhaustedError):
        UNDRAWABLE_CORPORA[kind](tmp_path / "c")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "check",
    [
        verify_cut_cwl_correspondence,
        lambda pairs: verify_depth_bound(pairs, n_bound=6),
        expressivity_check,
    ],
    ids=["cut-cwl", "depth-bound", "expressivity"],
)
def test_no_certification_passes_on_an_empty_corpus(check):
    with pytest.raises(EmptyInputError):
        check([])

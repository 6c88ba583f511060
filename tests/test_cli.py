"""Command-line behaviour: exit codes, JSON payloads, corpus env var."""

import json
import re
import shlex
from pathlib import Path

import pytest

from cdgwl import cli
from cdgwl.cgnn import ExpressivityReport
from cdgwl.cdg import universe
from cdgwl.experiments import DEFAULT_SIZES, Report, load_pair_corpus, write_stream_corpus
from cdgwl.errors import InvalidCdgError
from cdgwl.serialize import cdg_to_jsonl, load_cdg, save_cdg
from cdgwl.generate import GeneratorConfig, generate, generate_isomorphic_pair
from cdgwl.generate import six_cycle, two_triangles


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def pair_files(tmp_path):
    g1, g2, _ = generate_isomorphic_pair(GeneratorConfig(n_nodes=4, n_events=3), seed=2)
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_cdg(fa, g1)
    save_cdg(fb, g2)
    return str(fa), str(fb)


@pytest.fixture
def blind_spot_files(tmp_path):
    fa, fb = tmp_path / "tri.jsonl", tmp_path / "cyc.jsonl"
    save_cdg(fa, two_triangles())
    save_cdg(fb, six_cycle())
    return str(fa), str(fb)


def test_gen_single_stream_to_file(tmp_path, capsys):
    out = tmp_path / "g.jsonl"
    code, _, _ = run_cli(capsys, "gen", "--seed", "3", "--out", str(out))
    assert code == 0
    g = load_cdg(out)
    assert len(g.events) == 8


def test_gen_stdout_parses(capsys):
    code = cli.main(["gen", "--seed", "1", "--events", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith('{"')


def test_gen_pair_corpus_and_verify(tmp_path, capsys):
    corpus = tmp_path / "pairs"
    code, payload, _ = run_cli(
        capsys, "gen", "--pairs", "4", "--n-nodes", "4", "--corpus", str(corpus)
    )
    assert code == 0 and payload["manifest"]["n_pairs"] == 4
    code, payload, _ = run_cli(capsys, "verify", "cut-cwl", "--corpus", str(corpus))
    assert code == 0 and payload["passed"] is True and payload["mismatches"] == []
    code, payload, _ = run_cli(
        capsys, "verify", "depth-bound", "--corpus", str(corpus), "--n-bound", "4"
    )
    assert code == 0 and payload["passed"] is True


def test_depth_bound_defaults_to_the_largest_universe(tmp_path, capsys):
    corpus = tmp_path / "pairs"
    code, _, _ = run_cli(
        capsys, "gen", "--pairs", "10", "--n-nodes", "12", "--corpus", str(corpus)
    )
    assert code == 0
    largest = max(len(universe(g)) for pair in load_pair_corpus(corpus)[0] for g in pair)
    assert largest > 6
    code, payload, err = run_cli(capsys, "verify", "depth-bound", "--corpus", str(corpus))
    assert code == 0 and payload["passed"] is True, err
    code, payload, err = run_cli(
        capsys, "verify", "depth-bound", "--corpus", str(corpus), "--n-bound", str(largest - 1)
    )
    assert code == 2 and payload is None
    assert f"universe size {largest} exceeds the stated bound {largest - 1}" in err


def test_gen_keeps_the_stream_defaults(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--seed", "3", "--out", str(tmp_path / "g.jsonl"))
    assert code == 0
    assert (tmp_path / "g.jsonl").read_text() == cdg_to_jsonl(generate(GeneratorConfig(), 3))
    code, _, _ = run_cli(capsys, "gen", "--streams", "2", "--corpus", str(tmp_path / "s"))
    assert code == 0
    write_stream_corpus(tmp_path / "ref", 0, 2, GeneratorConfig())
    for name in ("stream0000.jsonl", "stream0001.jsonl", "manifest.json"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--pairs", "2", "--events", "20"], "--events"),
        (["--pairs", "2", "--dim", "3"], "--dim"),
        (["--pairs", "2", "--attr-values", "9"], "--attr-values"),
        (["--no-mixed"], "--no-mixed"),
        (["--streams", "2", "--no-mixed"], "--no-mixed"),
    ],
)
def test_gen_rejects_a_flag_it_would_ignore(argv, flag, tmp_path, capsys):
    code, payload, err = run_cli(capsys, "gen", *argv, "--corpus", str(tmp_path / "c"))
    assert code == 2 and payload is None and flag in err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--pairs", "2", "--streams", "2"],
        ["--pairs", "2", "--out", "g.jsonl"],
        ["--streams", "2", "--out", "g.jsonl"],
    ],
)
def test_gen_takes_one_of_pairs_streams_and_out(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["gen", *argv, "--corpus", str(tmp_path / "c")])
    err = capsys.readouterr().err
    assert exit_.value.code == 2 and "not allowed with argument" in err
    assert argv[2] in err and not (tmp_path / "c").exists()


def test_the_readme_gen_lines_run(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [ln.split("#")[0] for ln in readme.splitlines() if ln.startswith("cdgwl gen ")]
    assert len(lines) == 3
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)


def test_corpus_env_var(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "envpairs"
    run_cli(capsys, "gen", "--pairs", "2", "--n-nodes", "4", "--corpus", str(corpus))
    monkeypatch.setenv("CDGWL_CORPUS", str(corpus))
    code, payload, _ = run_cli(capsys, "verify", "cut-cwl")
    assert code == 0 and payload["pairs_checked"] == 2


def test_missing_corpus_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("CDGWL_CORPUS", raising=False)
    code, _, err = run_cli(capsys, "verify", "cut-cwl")
    assert code == 2 and "corpus" in err


def test_cwl_compare_self_and_run(pair_files, capsys):
    fa, fb = pair_files
    code, payload, _ = run_cli(capsys, "cwl", "compare", fa, fa)
    assert code == 0 and payload["equivalent"] is True
    code, payload, _ = run_cli(capsys, "cwl", "compare", fa, fb)
    assert code == 0 and payload["first_divergence"] is None
    code, payload, _ = run_cli(capsys, "cwl", "run", fa)
    assert code == 0 and payload["trajectories"]


def test_cwl_compare_detects_divergence(blind_spot_files, tmp_path, capsys):
    fa, _ = blind_spot_files
    other = tmp_path / "p.jsonl"
    save_cdg(other, generate(GeneratorConfig(n_nodes=6, n_events=0), seed=4))
    code, payload, _ = run_cli(capsys, "cwl", "compare", fa, str(other))
    assert code == 1 and payload["equivalent"] is False


def test_utree_build_and_compare(pair_files, capsys):
    fa, fb = pair_files
    g = load_cdg(fa)
    node = sorted(g.start.nodes)[0]
    code, payload, _ = run_cli(
        capsys, "utree", "build", fa, "--node", node, "--t", "0.0", "--depth", "2"
    )
    assert code == 0 and payload["signature_id"] >= 1
    code, _, err = run_cli(
        capsys, "utree", "build", fa, "--node", "ghost", "--t", "0.0", "--depth", "1"
    )
    assert code == 2 and "ghost" in err
    code, payload, _ = run_cli(capsys, "utree", "compare", fa, fb)
    assert code == 0 and payload["equivalent"] is True


def test_utree_build_resolves_an_integer_node_id(tmp_path, capsys):
    stream = tmp_path / "ints.jsonl"
    stream.write_text(
        '{"type":"start","d":1,"nodes":[{"id":0,"attr":[1.0]},{"id":1,"attr":[0.5]}],'
        '"edges":[{"u":0,"v":1,"attr":[1.0]}]}\n'
        '{"type":"event","t":1.0,"item":"node","key":1,"kind":"delete"}\n'
    )
    code, payload, err = run_cli(
        capsys, "utree", "build", str(stream), "--node", "0", "--t", "0.0", "--depth", "1"
    )
    assert code == 0, err
    assert payload["node"] == 0
    assert payload["signature_id"] == payload["all_signatures"]["0"] >= 1
    code, _, err = run_cli(
        capsys, "utree", "build", str(stream), "--node", "2", "--t", "0.0", "--depth", "1"
    )
    assert code == 2 and "'2' is not in the universe" in err


def test_iso_exit_codes(pair_files, blind_spot_files, capsys):
    fa, fb = pair_files
    code, payload, _ = run_cli(capsys, "iso", fa, fb)
    assert code == 0 and payload["isomorphic"] is True and payload["mapping"]
    ba, bb = blind_spot_files
    code, payload, _ = run_cli(capsys, "iso", ba, bb)
    assert code == 1 and payload["mapping"] is None


def test_cwl_compare_and_iso_name_the_same_timestamp_counts(tmp_path, capsys):
    """8 events against 5: both commands report 9 and 6 timestamps."""
    files = []
    for name, n_events in (("long", 8), ("short", 5)):
        path = tmp_path / f"{name}.jsonl"
        save_cdg(path, generate(GeneratorConfig(n_nodes=3, n_events=n_events), seed=1))
        files.append(str(path))
    counts = []
    for command in (["cwl", "compare"], ["iso"]):
        code, _, err = run_cli(capsys, *command, *files)
        assert code == 2 and "timestamp counts differ" in err
        counts.append(sorted(map(int, re.findall(r"\d+", err))))
    assert counts == [[6, 9], [6, 9]]


def test_decompose_payload(blind_spot_files, capsys):
    fa, _ = blind_spot_files
    code, payload, _ = run_cli(capsys, "decompose", fa, "--t", "0.0")
    assert code == 0
    assert payload["disconnected"] is True
    assert sorted(len(c) for c in payload["components"]) == [3, 3]


def test_decompose_at_an_unknown_timestamp_exits_2(blind_spot_files, capsys):
    code, payload, err = run_cli(capsys, "decompose", blind_spot_files[0], "--t", "0.25")
    assert code == 2 and payload is None
    assert err.startswith("error:") and "unexpected" not in err


def test_match_components_blind_spot(blind_spot_files, capsys):
    fa, fb = blind_spot_files
    code, payload, _ = run_cli(capsys, "match-components", fa, fb, "--t", "0.0")
    assert code == 0  # class-level verdict drives the exit code
    assert payload["class_counts_match"] is True
    assert payload["component_counts_match"] is False


def test_cgnn_expressivity_over_corpus(tmp_path, capsys):
    corpus = tmp_path / "xp"
    run_cli(capsys, "gen", "--pairs", "2", "--n-nodes", "4", "--corpus", str(corpus))
    code, payload, _ = run_cli(
        capsys, "cgnn", "expressivity", "--corpus", str(corpus),
        "--seeds", "2", "--layers", "2",
    )
    assert code == 0 and payload["passed"] is True


def test_cgnn_expressivity_names_symbolic_mismatch(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "xp"
    run_cli(capsys, "gen", "--pairs", "2", "--n-nodes", "4", "--corpus", str(corpus))
    report = ExpressivityReport(instances=2, symbolic_exact=1, symbolic_mismatches=[{"pair": 1}])
    monkeypatch.setattr(cli, "expressivity_check", lambda pairs, seeds, layers: report)
    code, payload, _ = run_cli(capsys, "cgnn", "expressivity", "--corpus", str(corpus))
    assert code == 1 and payload["passed"] is False
    assert payload["symbolic_mismatches"] == [{"pair": 1}]


def test_cgnn_train_writes_params(tmp_path, capsys):
    corpus = tmp_path / "tr"
    run_cli(capsys, "gen", "--streams", "2", "--n-nodes", "3", "--events", "2",
            "--attr-values", "2", "--corpus", str(corpus))
    target_file = tmp_path / "target.json"
    from cdgwl import CdynTarget

    target_file.write_text(CdynTarget.from_entries([], 1, default=(0.5,)).to_json())
    params_file = tmp_path / "params.json"
    code, payload, _ = run_cli(
        capsys, "cgnn", "train", "--corpus", str(corpus),
        "--target", str(target_file), "--epochs", "400", "--goal", "0.01",
        "--out", str(params_file),
    )
    assert code == 0
    assert payload["final_loss"] < payload["initial_loss"]
    assert "readout.w1" in json.loads(params_file.read_text())


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epochs", "-3"], "steps must be at least 0, got -3"),
        (["--lr", "-1"], "lr must be positive, got -1.0"),
        (["--lr", "nan"], "lr must be positive, got nan"),
        (["--goal", "0"], "goal must be positive, got 0.0"),
        (["--hidden-dim", "0"], "SgnnConfig.hidden_dim must be at least 1, got 0"),
        (["--hidden-dim", "-2"], "SgnnConfig.hidden_dim must be at least 1, got -2"),
        (["--state-dim", "0"], "TemporalConfig.state_dim must be at least 1, got 0"),
        (["--lr", "inf"], "lr must be finite, got inf"),
    ],
)
def test_cgnn_train_out_of_range_exits_2(flags, message, tmp_path, capsys):
    corpus = tmp_path / "tr"
    run_cli(capsys, "gen", "--streams", "2", "--corpus", str(corpus))
    target_file = tmp_path / "target.json"
    target_file.write_text('{"output_dim": 1, "default": [0.0], "entries": []}')
    code, payload, err = run_cli(
        capsys, "cgnn", "train", "--corpus", str(corpus), "--target", str(target_file), *flags
    )
    assert code == 2 and payload is None and message in err


BAD_TARGETS = {
    "no-entries": ('{"output_dim": 1}', "'entries'"),
    "entry-without-value": (
        '{"output_dim": 1, "entries": [{"t": 0, "prefix": [1]}]}', "'entries[0].value'"),
    "json-list": ('[{"output_dim": 1, "entries": []}]', "JSON object"),
    "not-json": ("{nope", "target: invalid JSON"),
    "not-utf8": (b"\xff\xfe{", "target.json: target: not UTF-8"),
    "undefined-on-corpus": ('{"output_dim": 1, "default": null, "entries": []}',
                            "target undefined"),
}


@pytest.mark.parametrize("case", sorted(BAD_TARGETS))
def test_bad_target_file_exits_2(case, tmp_path, capsys):
    text, needle = BAD_TARGETS[case]
    corpus = tmp_path / "tr"
    run_cli(capsys, "gen", "--streams", "2", "--n-nodes", "3", "--events", "2",
            "--corpus", str(corpus))
    target_file = tmp_path / "target.json"
    target_file.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, payload, err = run_cli(
        capsys, "cgnn", "train", "--corpus", str(corpus), "--target", str(target_file),
        "--epochs", "3",
    )
    assert code == 2 and payload is None
    assert err.startswith("error: ") and needle in err and "Traceback" not in err


def test_malformed_manifest_exits_2(tmp_path, capsys):
    corpus = tmp_path / "odd"
    corpus.mkdir()
    (corpus / "manifest.json").write_text('{"streams": [{}]}')
    target_file = tmp_path / "target.json"
    target_file.write_text('{"output_dim": 1, "default": [0.5], "entries": []}')
    code, payload, err = run_cli(
        capsys, "cgnn", "train", "--corpus", str(corpus), "--target", str(target_file)
    )
    assert code == 2 and payload is None
    assert err.startswith("error: ") and "'streams[0].file': expected a file name" in err
    assert "unexpected" not in err


def test_a_manifest_that_is_not_json_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{nope")
    code, payload, err = run_cli(capsys, "verify", "cut-cwl", "--corpus", str(tmp_path))
    assert code == 2 and payload is None
    assert err.startswith("error: ") and "manifest.json: invalid JSON" in err


NOT_UTF8 = b"\xff\xfe{"


def test_a_stream_file_that_is_not_utf8_exits_2_naming_it(pair_files, tmp_path, capsys):
    bad = tmp_path / "bytes.jsonl"
    bad.write_bytes(NOT_UTF8)
    code, payload, err = run_cli(capsys, "cwl", "compare", str(bad), pair_files[0])
    assert code == 2 and payload is None
    assert err.startswith(f"error: {bad}: line 1: not UTF-8")


def test_an_invalid_stream_file_exits_2_naming_it(pair_files, tmp_path, capsys):
    bad = tmp_path / "ghost.jsonl"
    bad.write_text(GOOD_START + "\n" + _event(key="z", kind="delete", attr=None) + "\n")
    code, payload, err = run_cli(capsys, "cwl", "compare", pair_files[0], str(bad))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {bad}: event 0: node 'z' not present")
    with pytest.raises(InvalidCdgError) as exc:
        load_cdg(bad)
    assert len(exc.value.diagnostics) == 1


def test_a_manifest_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    (tmp_path / "manifest.json").write_bytes(NOT_UTF8)
    code, payload, err = run_cli(capsys, "verify", "cut-cwl", "--corpus", str(tmp_path))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {tmp_path / 'manifest.json'}: invalid JSON")


def test_a_bad_stream_in_a_pair_corpus_exits_2_naming_it(tmp_path, capsys):
    run_cli(capsys, "gen", "--pairs", "3", "--corpus", str(tmp_path))
    (tmp_path / "pair0001_b.jsonl").write_text("{nope\n")
    code, payload, err = run_cli(capsys, "verify", "cut-cwl", "--corpus", str(tmp_path))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {tmp_path / 'pair0001_b.jsonl'}: line 1: invalid JSON")


def test_unexpected_exception_exits_2(pair_files, capsys, monkeypatch):
    # an error no typed check anticipates
    def broken(path):
        raise RuntimeError(f"cannot read {path}")

    monkeypatch.setattr(cli, "load_cdg", broken)
    code, payload, err = run_cli(capsys, "cwl", "compare", *pair_files)
    assert code == 2 and payload is None
    assert err == f"error: unexpected RuntimeError: cannot read {pair_files[0]}\n"


def test_cgnn_gradcheck(tmp_path, capsys):
    probe = tmp_path / "probe.jsonl"
    save_cdg(probe, generate(GeneratorConfig(n_nodes=3, n_events=2), seed=6))
    code, payload, _ = run_cli(
        capsys, "cgnn", "gradcheck", "--probe", str(probe), "--samples", "15"
    )
    assert code == 0 and payload["passed"] is True
    assert {c["mode"] for c in payload["checks"]} == {"per-interval", "shared-dt"}


def test_cgnn_gradcheck_nan_error_fails(tmp_path, capsys, monkeypatch):
    # the NaN comes second, where max() over the checks would drop it
    errors = {"per-interval": 0.0, "shared-dt": float("nan")}

    def check(probe, sgnn, temporal, n_samples, seed):
        return errors[temporal.mode]

    monkeypatch.setattr(cli, "gradient_check", check)
    probe = tmp_path / "probe.jsonl"
    save_cdg(probe, generate(GeneratorConfig(n_nodes=3, n_events=2), seed=6))
    code, payload, _ = run_cli(capsys, "cgnn", "gradcheck", "--probe", str(probe))
    assert code == 1 and payload["passed"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--samples", "0"], "samples must be at least 1, got 0"),
        (["--tolerance", "-1"], "tolerance must be at least 0, got -1.0"),
        (["--tolerance", "nan"], "tolerance must be at least 0, got nan"),
        (["--hidden-dim", "0"], "SgnnConfig.hidden_dim must be at least 1, got 0"),
    ],
)
def test_cgnn_gradcheck_that_checks_nothing_exits_2(flags, message, tmp_path, capsys):
    probe = tmp_path / "probe.jsonl"
    save_cdg(probe, generate(GeneratorConfig(n_nodes=3, n_events=2), seed=6))
    code, payload, err = run_cli(capsys, "cgnn", "gradcheck", "--probe", str(probe), *flags)
    assert code == 2 and payload is None and message in err


def test_cgnn_gradcheck_on_a_probe_without_nodes_exits_2(tmp_path, capsys):
    probe = tmp_path / "empty.jsonl"
    probe.write_text('{"type":"start","d":1,"nodes":[],"edges":[]}\n')
    code, payload, err = run_cli(capsys, "cgnn", "gradcheck", "--probe", str(probe))
    assert code == 2 and payload is None and "no live node" in err


def test_cgnn_train_on_a_corpus_without_nodes_exits_2(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    (corpus / "e.jsonl").write_text('{"type":"start","d":1,"nodes":[],"edges":[]}\n')
    (corpus / "manifest.json").write_text(
        '{"kind":"streams","seed":0,"n_streams":1,"streams":[{"index":0,"file":"e.jsonl"}]}'
    )
    target_file = tmp_path / "target.json"
    target_file.write_text('{"output_dim": 1, "default": [0.0], "entries": []}')
    code, payload, err = run_cli(
        capsys, "cgnn", "train", "--corpus", str(corpus), "--target", str(target_file),
        "--epochs", "5",
    )
    assert code == 2 and payload is None and "no live node" in err


def test_run_experiment_with_report(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, payload, _ = run_cli(
        capsys, "run", "gradcheck", "--probes", "1", "--samples", "10",
        "--out", str(report_file),
    )
    assert code == 0 and payload["passed"] is True
    assert json.loads(report_file.read_text())["experiment"] == "gradcheck"


def test_run_failure_exit_code(tmp_path, capsys):
    # an impossible tolerance forces a negative verdict
    code, payload, _ = run_cli(
        capsys, "run", "gradcheck", "--probes", "1", "--samples", "10",
        "--tolerance", "0.0",
    )
    assert code == 1 and payload["passed"] is False


def test_run_takes_one_flag_per_size_parameter(capsys, monkeypatch):
    seen = {}

    def fake_run(name, seed, jobs, out, **sizes):
        seen.update(sizes)
        return Report(name, seed, {}, {}, [], True, 0.0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    defaults = {key: v for sizes in DEFAULT_SIZES.values() for key, v in sizes.items()}
    argv, want = ["run", "gradcheck"], {}
    for i, (key, default) in enumerate(sorted(defaults.items())):
        want[key] = type(default)(i + 2)
        argv += ["--" + key.replace("_", "-"), str(want[key])]
    code, payload, _ = run_cli(capsys, *argv)
    assert code == 0 and payload["passed"] is True
    assert seen == want


@pytest.mark.parametrize(
    "argv",
    [
        ["cwl", "run", "{a}", "--depth", "-3"],
        ["utree", "build", "{a}", "--node", "{node}", "--t", "0.0", "--depth", "-2"],
        ["utree", "compare", "{a}", "{a}", "--depth", "-5"],
    ],
)
def test_negative_depth_exits_2(argv, pair_files, capsys):
    fa = pair_files[0]
    node = sorted(load_cdg(fa).start.nodes)[0]
    code, payload, err = run_cli(capsys, *(x.format(a=fa, node=node) for x in argv))
    assert code == 2 and payload is None and "depth must be non-negative" in err


def test_run_size_below_one_exits_2(capsys):
    code, payload, err = run_cli(capsys, "run", "cut-cwl", "--pairs", "-1")
    assert code == 2 and payload is None and "pairs must be at least 1" in err


def test_bad_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "cwl", "run", "/nonexistent/file.jsonl")
    assert code == 2 and err.startswith("error:")


GOOD_START = (
    '{"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]},{"id":"b","attr":[1.0]}],"edges":[]}'
)
GOOD_EVENT = '{"type":"event","t":1.0,"item":"node","key":"c","kind":"add","attr":[1.0]}'


def _start(**fields):
    obj = json.loads(GOOD_START)
    obj.update(fields)
    return json.dumps(obj)


def _event(drop=None, **fields):
    obj = json.loads(GOOD_EVENT)
    obj.update(fields)
    obj.pop(drop, None)
    return json.dumps(obj)


MALFORMED = {
    "event without t": ([GOOD_START, _event(drop="t")], 2, "t"),
    "t is a string": ([GOOD_START, _event(t="1.0")], 2, "t"),
    "t is a boolean": ([GOOD_START, _event(t=True)], 2, "t"),
    "event without item": ([GOOD_START, _event(drop="item")], 2, "item"),
    "item is a number": ([GOOD_START, _event(item=1)], 2, "item"),
    "unknown item": ([GOOD_START, _event(item="hyperedge")], 2, "item"),
    "event without key": ([GOOD_START, _event(drop="key")], 2, "key"),
    "node key is a list": ([GOOD_START, _event(key=["c"])], 2, "key"),
    "edge key has one end": ([GOOD_START, _event(item="edge", key=["a"])], 2, "key"),
    "edge key is a string": ([GOOD_START, _event(item="edge", key="ab")], 2, "key"),
    "event without kind": ([GOOD_START, _event(drop="kind")], 2, "kind"),
    "kind is a list": ([GOOD_START, _event(kind=["add"])], 2, "kind"),
    "start without d": ([_start(d=None).replace('"d": null, ', "")], 1, "d"),
    "d is a string": ([_start(d="1")], 1, "d"),
    "node without id": ([_start(nodes=[{"attr": [1.0]}])], 1, "id"),
    "id is a list": ([_start(nodes=[{"id": ["a"], "attr": [1.0]}])], 1, "id"),
    "start ids mix types": (
        [_start(nodes=[{"id": "a", "attr": [1.0]}, {"id": 3, "attr": [1.0]}])], 1, "id"),
    "event key mixes types": ([GOOD_START, _event(key=3)], 2, "key"),
    "attr holds null": ([GOOD_START, _event(attr=[None])], 2, "attr"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_jsonl_exits_2_naming_line_and_field(case, tmp_path, capsys):
    lines, line_no, field = MALFORMED[case]
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    good.write_text(GOOD_START + "\n" + GOOD_EVENT + "\n")
    code, payload, err = run_cli(capsys, "cwl", "compare", str(bad), str(good))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {bad}: line {line_no}, field {field!r}:")



@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--events", "-1"], "n_events must be at least 0"),
        (["gen", "--n-nodes", "0"], "n_nodes must be at least 1"),
        (["gen", "--dim", "0"], "dim must be at least 1"),
        (["gen", "--attr-values", "0"], "attr_values must be at least 1"),
        (["gen", "--pairs", "0", "--corpus", "{corpus}"], "needs at least 1 pair"),
        (["gen", "--streams", "0", "--corpus", "{corpus}"], "needs at least 1 stream"),
        (["run", "cut-cwl", "--pairs", "1", "--jobs", "0"], "jobs must be at least 1"),
        (["run", "cut-cwl", "--pairs", "1", "--jobs", "-1"], "jobs must be at least 1"),
        (
            ["run", "gradcheck", "--probes", "1", "--samples", "5", "--tolerance", "-1"],
            "tolerance must be at least 0",
        ),
        (["run", "approximation", "--goal", "-5", "--lr", "-3"], "lr must be positive"),
        (["run", "approximation", "--lr", "inf"], "lr must be positive and finite, got inf"),
    ],
)
def test_out_of_range_counts_exit_2(argv, message, tmp_path, capsys):
    corpus = tmp_path / "c"
    code, payload, err = run_cli(capsys, *(x.format(corpus=corpus) for x in argv))
    assert code == 2 and payload is None and message in err
    assert not corpus.exists()


@pytest.mark.parametrize(
    "argv",
    [["verify", "cut-cwl"], ["verify", "depth-bound"], ["cgnn", "expressivity"]],
)
def test_certifying_an_empty_corpus_exits_2(argv, tmp_path, capsys):
    (tmp_path / "manifest.json").write_text('{"kind": "pairs", "pairs": []}')
    code, payload, err = run_cli(capsys, *argv, "--corpus", str(tmp_path))
    assert code == 2 and payload is None and "no pairs given" in err


def test_expressivity_with_no_numeric_seed_exits_2(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--pairs", "2", "--corpus", str(tmp_path / "p"))
    assert code == 0
    code, payload, err = run_cli(
        capsys, "cgnn", "expressivity", "--corpus", str(tmp_path / "p"), "--seeds", "0"
    )
    assert code == 2 and payload is None and "seeds must be at least 1" in err


@pytest.mark.parametrize("layers", ["-1", "0"])
def test_expressivity_with_no_layer_exits_2(layers, tmp_path, capsys):
    code, _, _ = run_cli(capsys, "gen", "--pairs", "2", "--corpus", str(tmp_path / "p"))
    assert code == 0
    code, payload, err = run_cli(
        capsys, "cgnn", "expressivity", "--corpus", str(tmp_path / "p"), "--layers", layers
    )
    assert code == 2 and payload is None and f"layers must be at least 1, got {layers}" in err

"""Properties drawn by hypothesis: verdicts do not depend on node names, the
wire format round-trips on canonical text, and a mutated stream never
reaches the exit code of a negative verdict."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cdgwl import (
    BIJECTION,
    EXISTENCE,
    CdgError,
    GeneratorConfig,
    cdg_from_jsonl,
    cdg_to_jsonl,
    cli,
    compare_graphs,
    generate,
    graph_cut_equivalent,
    relabel_cdg,
    universe,
    verify_cut_cwl_correspondence,
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 6),
    n_events=st.integers(0, 8),
    attr_values=st.integers(1, 3),
    p_start_edge=st.sampled_from((0.0, 0.3, 0.7)),
    data=st.data(),
)
def test_verdicts_ignore_relabeling(seed, n_nodes, n_events, attr_values, p_start_edge, data):
    config = GeneratorConfig(
        n_nodes=n_nodes, n_events=n_events, attr_values=attr_values, p_start_edge=p_start_edge
    )
    g = generate(config, seed)
    us = universe(g)
    h = relabel_cdg(g, dict(zip(us, data.draw(st.permutations(us)))))
    for mode in (BIJECTION, EXISTENCE):
        verdict = compare_graphs(g, h, mode=mode)
        assert verdict.equivalent and verdict.first_divergence is None
    assert graph_cut_equivalent(g, h).equivalent
    report = verify_cut_cwl_correspondence([(g, h)])
    assert report.ok and report.timestamps_checked == n_events + 1


canonical_texts = st.builds(
    lambda seed, n_nodes, n_events, dim, attr_values: cdg_to_jsonl(generate(
        GeneratorConfig(n_nodes=n_nodes, n_events=n_events, dim=dim, attr_values=attr_values),
        seed,
    )),
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 6),
    n_events=st.integers(0, 8),
    dim=st.integers(1, 2),
    attr_values=st.integers(1, 4),
)


@settings(max_examples=40, deadline=None)
@given(text=canonical_texts)
def test_parse_then_serialize_is_identity_on_canonical_text(text):
    assert cdg_to_jsonl(cdg_from_jsonl(text)) == text


LINE_CHARS = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))
ODD_VALUES = (None, True, 0, -1, 1.5, 1e400, "", "a", [], ["a"], [1, 2], {}, {"id": "a"})


def _json_object(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


@st.composite
def mutated_streams(draw):
    lines = draw(canonical_texts).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("drop", "retype", "truncate", "swap", "garbage")))
        if how in ("drop", "retype"):
            obj = _json_object(lines[i])
            if not obj:
                continue
            name = draw(st.sampled_from(sorted(obj)))
            if how == "drop":
                del obj[name]
            else:
                obj[name] = draw(st.sampled_from(ODD_VALUES))
            lines[i] = json.dumps(obj)
        elif how == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        elif how == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(i, draw(st.text(LINE_CHARS, max_size=20)))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=mutated_streams())
def test_mutated_stream_exits_0_or_2_never_1(text):
    try:
        cdg_from_jsonl(text)
        invalid = False
    except CdgError:
        invalid = True
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["cwl", "compare", str(path), str(path)])
    assert code == (2 if invalid else 0)
    assert "unexpected" not in err.getvalue()

"""Wire-format exactness and round-trip fidelity."""

import pytest

from cdgwl import (
    ADD,
    Cdg,
    DELETE,
    EDGE,
    Event,
    GeneratorConfig,
    NODE,
    StartGraph,
    cdg_from_jsonl,
    cdg_to_jsonl,
    generate,
    load_cdg,
    save_cdg,
)
from conftest import A


def test_exact_wire_format():
    g = Cdg(
        StartGraph({"a": (1.0,), "b": (0.5,)}, {("a", "b"): (0.25,)}),
        (
            Event(1.0, NODE, "c", ADD, (1.0,)),
            Event(2.0, EDGE, ("a", "c"), ADD, (0.5,)),
            Event(3.0, EDGE, ("a", "c"), DELETE),
        ),
    )
    expected = (
        '{"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]},{"id":"b","attr":[0.5]}],'
        '"edges":[{"u":"a","v":"b","attr":[0.25]}]}\n'
        '{"type":"event","t":1.0,"item":"node","key":"c","kind":"add","attr":[1.0]}\n'
        '{"type":"event","t":2.0,"item":"edge","key":["a","c"],"kind":"add","attr":[0.5]}\n'
        '{"type":"event","t":3.0,"item":"edge","key":["a","c"],"kind":"delete"}\n'
    )
    assert cdg_to_jsonl(g) == expected


def test_round_trip_on_generated_streams():
    for seed in range(30):
        cfg = GeneratorConfig(n_nodes=5, n_events=6, dim=1 + seed % 2)
        g = generate(cfg, seed=seed)
        assert cdg_from_jsonl(cdg_to_jsonl(g)) == g


def test_round_trip_preserves_awkward_floats():
    vals = (0.1, 1 / 3, 1e-17, 12345678901234.5)
    g = Cdg(StartGraph({"a": vals}, {}), (Event(0.125, NODE, "b", ADD, vals),))
    back = cdg_from_jsonl(cdg_to_jsonl(g))
    assert back.start.nodes["a"] == vals
    assert back.events[0].attr == vals
    assert back.events[0].time == 0.125


def test_serialization_is_byte_stable():
    g = generate(GeneratorConfig(), seed=7)
    assert cdg_to_jsonl(g) == cdg_to_jsonl(cdg_from_jsonl(cdg_to_jsonl(g)))


def test_file_round_trip(tmp_path):
    g = generate(GeneratorConfig(), seed=3)
    path = tmp_path / "g.jsonl"
    save_cdg(path, g)
    assert load_cdg(path) == g


def test_rejects_malformed_input():
    with pytest.raises(ValueError):
        cdg_from_jsonl("")
    with pytest.raises(ValueError):
        cdg_from_jsonl('{"type":"event","t":1.0,"item":"node","key":"a","kind":"add","attr":[1.0]}\n')
    good_start = '{"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]}],"edges":[]}\n'
    with pytest.raises(ValueError):
        cdg_from_jsonl(good_start + '{"type":"start","d":1,"nodes":[],"edges":[]}\n')


def test_attr_never_emitted_for_deletes():
    g = Cdg(
        StartGraph({"a": A, "b": A}, {("a", "b"): A}),
        (Event(1.0, EDGE, ("a", "b"), DELETE), Event(2.0, NODE, "b", DELETE)),
    )
    lines = cdg_to_jsonl(g).splitlines()
    assert '"attr"' not in lines[1]
    assert '"attr"' not in lines[2]


def test_malformed_line_names_its_line_and_field():
    from cdgwl import CdgError, MalformedStreamError

    text = (
        '{"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]}],"edges":[]}\n'
        "\n"
        '{"type":"event","item":"node","key":"b","kind":"add","attr":[1.0]}\n'
    )
    with pytest.raises(MalformedStreamError) as info:
        cdg_from_jsonl(text)
    assert (info.value.line, info.value.field) == (3, "t")
    assert isinstance(info.value, CdgError) and isinstance(info.value, ValueError)
    with pytest.raises(MalformedStreamError, match="line 1: invalid JSON"):
        cdg_from_jsonl("{nope\n")


def test_non_canonical_text_normalizes():
    text = (
        '{"type": "start", "d": 1,'
        ' "nodes": [{"id": "b", "attr": [1]}, {"id": "a", "attr": [1.0]}],'
        ' "edges": [{"u": "b", "v": "a", "attr": [0.5]}]}\n'
    )
    canonical = (
        '{"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]},{"id":"b","attr":[1.0]}],'
        '"edges":[{"u":"a","v":"b","attr":[0.5]}]}\n'
    )
    g = cdg_from_jsonl(text)
    assert cdg_to_jsonl(g) == canonical
    assert cdg_from_jsonl(canonical) == g

"""Properties drawn by hypothesis: verdicts do not depend on node names, the
wire format round-trips every stream, a mutated stream never reaches
the exit code of a negative verdict, and the refinement kernel mints the
ids of a full recompute on arbitrary streams, on snapshots and along the
joint timeline (also when each union repeats the call of the union before,
so that its tail reuses that call's output), and the numeric network's
states at every timestamp are
those of each snapshot embedded alone, folded by the recurrence."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgwl import (
    ADD,
    ATTR_CHANGE,
    BIJECTION,
    DELETE,
    EDGE,
    EXISTENCE,
    NODE,
    NUMERIC,
    PER_INTERVAL,
    SHARED_DT,
    Cdg,
    CdgError,
    CgnnModel,
    ColorDictionary,
    Event,
    GeneratorConfig,
    SgnnConfig,
    StartGraph,
    TemporalConfig,
    cdg_from_jsonl,
    cdg_to_jsonl,
    cgnn_forward,
    cli,
    compare_graphs,
    generate,
    graph_cut_equivalent,
    relabel_cdg,
    snapshots,
    universe,
    verify_cut_cwl_correspondence,
)
from cdgwl.trees import tree_sig_levels, tree_sigs_at_depth, tree_sigs_stable
from cdgwl.wl import _as_map, _joint_timeline, _refine, awl_stable, merged_snapshot, refine_at_depth
from conftest import sgnn_forward
from test_golden import ref_levels, ref_stable


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


@st.composite
def streams(draw, dim, n_events):
    """A valid stream over integer ids 0..7 with attributes from {0.0, -0.0, 1.0}.

    Every event is drawn among those that apply to the current state, so
    nodes get deleted and re-added and edges toggle off and on; the start
    graph may be empty, and so may the whole universe.
    """
    attrs = st.tuples(*[st.sampled_from((0.0, -0.0, 1.0))] * dim)
    ids = range(draw(st.integers(0, 8)))
    nodes = {v: draw(attrs) for v in ids if draw(st.booleans())}
    pairs = [(u, v) for u in nodes for v in nodes if u < v]
    edges = {}
    if pairs:  # sparse, so that components have long paths
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=len(nodes))):
            edges[pair] = draw(attrs)
    start = StartGraph(dict(nodes), dict(edges))
    events = []
    for t in range(1, n_events + 1):
        moves = [(NODE, v, ADD) for v in ids if v not in nodes]
        moves += [(NODE, v, kind) for v in nodes for kind in (DELETE, ATTR_CHANGE)]
        moves += [
            (EDGE, (u, v), ADD) for u in nodes for v in nodes if u < v and (u, v) not in edges
        ]
        moves += [(EDGE, pair, kind) for pair in edges for kind in (DELETE, ATTR_CHANGE)]
        if not moves:  # an empty id range: the stream ends here
            break
        item, key, kind = draw(st.sampled_from(moves))
        attr = None if kind == DELETE else draw(attrs)
        events.append(Event(float(t), item, key, kind, attr))
        table = nodes if item == NODE else edges
        if kind == DELETE:
            del table[key]
            if item == NODE:
                edges = {p: a for p, a in edges.items() if key not in p}
        else:
            table[key] = attr
    return Cdg(start, tuple(events), dim=dim)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), n_events=st.integers(0, 10))
def test_wire_format_round_trips_every_stream(data, dim, n_events):
    # -0.0 == 0.0, so the byte-stable text is what pins the sign of zero
    g = data.draw(streams(dim, n_events))
    text = cdg_to_jsonl(g)
    assert cdg_from_jsonl(text) == g
    assert cdg_to_jsonl(cdg_from_jsonl(text)) == text


KERNEL_CALLS = ("levels", "at_depth", "colors", "awl_stable", "tree_stable")


def _stream_pair(data, dim, n_events):
    """Two drawn streams with one timestamp count; the second may be the first."""
    g1 = data.draw(streams(dim, n_events))
    g2 = data.draw(st.one_of(st.just(g1), streams(dim, len(g1.events))))
    if len(g2.events) != len(g1.events):
        g1 = Cdg(g1.start, g1.events[: len(g2.events)], dim=dim)
    return g1, g2


def _check_kernel_calls(data, given, s, joint, got, ref):
    """1-3 drawn kernel calls on ``given`` against the reference on snapshot ``s``."""
    for _ in range(data.draw(st.integers(1, 3))):
        call = data.draw(st.sampled_from(KERNEL_CALLS))
        depth = data.draw(st.integers(0, 2 * len(joint) + 2))
        if call == "levels":
            want = ref_levels(s, joint, ref, depth, True)
            assert tree_sig_levels(given, joint, got, depth) == want
        elif call == "at_depth":
            want = ref_levels(s, joint, ref, depth, True)[-1]
            assert tree_sigs_at_depth(given, joint, got, depth) == want
        elif call == "colors":
            want = ref_levels(s, joint, ref, depth, False)[-1]
            assert refine_at_depth(given, joint, got, depth) == want
        elif call == "awl_stable":
            assert awl_stable(given, joint, got) == ref_stable(s, joint, ref, False)
        else:
            assert tree_sigs_stable(given, joint, got) == ref_stable(s, joint, ref, True)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), n_events=st.integers(0, 10))
def test_kernel_mints_full_recompute_ids_on_arbitrary_streams(data, dim, n_events):
    g1, g2 = _stream_pair(data, dim, n_events)
    universes = [universe(g1), universe(g2)]
    got, ref = ColorDictionary(), ColorDictionary()
    for s1, s2 in zip(snapshots(g1), snapshots(g2)):
        s, joint = merged_snapshot([s1, s2], universes)
        _check_kernel_calls(data, s, s, joint, got, ref)
    assert len(got) == len(ref)
    assert list(got.items()) == list(ref.items())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2), n_events=st.integers(0, 10))
def test_kernel_mints_full_recompute_ids_along_the_joint_timeline(data, dim, n_events):
    # the timeline's unions follow one another, so the kernel may reuse the
    # levels of the timestamp before; snapshots never offer them
    g1, g2 = _stream_pair(data, dim, n_events)
    universes, steps = _joint_timeline([g1, g2])
    got, ref = ColorDictionary(), ColorDictionary()
    for union, snaps in zip(steps, zip(snapshots(g1), snapshots(g2))):
        s, joint = merged_snapshot(list(snaps), universes)
        assert union.order == sorted(joint)
        if data.draw(st.integers(0, 3)) == 0:  # a key of another kind, as symbolic states mint
            key = ("q", data.draw(st.integers(0, 3)))
            assert got.id_of(key) == ref.id_of(key)
        _check_kernel_calls(data, union, s, union.order, got, ref)
    assert len(got) == len(ref)
    assert list(got.items()) == list(ref.items())


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 2),
    n_events=st.integers(0, 10),
    call=st.sampled_from(("trees", "colors", "window")),
)
def test_a_call_repeated_along_the_timeline_mints_full_recompute_ids(data, dim, n_events, call):
    # the same fixed-depth call at every union: past the stable level the
    # kernel then runs the tail only on the components an event reached and
    # copies the previous union's output elsewhere.  "trees" reads one depth,
    # as cut_trajectories does; "window" reads levels lo..depth of trees, as
    # verify_depth_bound does; "colors" reads one depth of refine_at_depth
    g1, g2 = _stream_pair(data, dim, n_events)
    universes, steps = _joint_timeline([g1, g2])
    depth = data.draw(st.integers(0, 2 * sum(map(len, universes)) + 2))
    lo = data.draw(st.integers(0, depth)) if call == "window" else depth
    got, ref = ColorDictionary(), ColorDictionary()
    for union, snaps in zip(steps, zip(snapshots(g1), snapshots(g2))):
        s, joint = merged_snapshot(list(snaps), universes)
        if data.draw(st.integers(0, 3)) == 0:  # a key of another kind, as symbolic states mint
            key = ("q", data.draw(st.integers(0, 3)))
            assert got.id_of(key) == ref.id_of(key)
        if call == "colors":
            want = ref_levels(s, joint, ref, depth, False)[-1]
            assert refine_at_depth(union, union.order, got, depth) == want
        else:
            want = ref_levels(s, joint, ref, depth, True)[lo:]
            levels = _refine(union, got, depth, tree=True, lo=lo)
            assert [_as_map(union, ids) for ids in levels] == want
    assert len(got) == len(ref)
    assert list(got.items()) == list(ref.items())


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 2),
    n_events=st.integers(0, 10),
    layers=st.integers(1, 3),
    mode=st.sampled_from((PER_INTERVAL, SHARED_DT)),
    state_dim=st.sampled_from((3, 4)),
    seed=st.integers(0, 2**16),
)
def test_forward_states_are_snapshot_embeddings_folded_by_the_recurrence(
    data, dim, n_events, layers, mode, state_dim, seed
):
    # bitwise, at every timestamp: the hidden vector of a node is that of its
    # snapshot embedded alone, and its state is the adapter at (re)appearance,
    # then the cell over the previous state and the current embedding
    g = data.draw(streams(dim, n_events))
    sg = SgnnConfig(mode=NUMERIC, layers=layers, hidden_dim=3, mlp_hidden=5)
    tc = TemporalConfig(mode=mode, state_dim=state_dim, mlp_hidden=5)
    model = CgnnModel.init(dim, 1, sg, tc, n_intervals=len(g.events), seed=seed)
    us, snaps = universe(g), snapshots(g)
    states = cgnn_forward(g, model)
    assert len(states) == len(snaps)
    prev = {}
    for i, (snap, sm) in enumerate(zip(snaps, states)):
        alone = sgnn_forward(snap, us, model)
        state = {}
        for v in us:
            h, q = sm.hidden[v], sm.state[v]
            assert (h is None) == (q is None) == (v not in snap.nodes)
            if h is None:
                continue
            assert h.tobytes() == alone[v].tobytes()
            if v not in prev:
                want = h if model.adapter is None else (
                    np.einsum("ij,kj->ik", h[None], model.adapter[0]) + model.adapter[1]
                )[0]
            elif mode == PER_INTERVAL:
                want = model.cells[i - 1].forward(np.concatenate([prev[v], h])[None])[0][0]
            else:
                dt = snap.time - snaps[i - 1].time
                x = np.concatenate([prev[v], h, [dt]])[None]
                want = model.cells[0].forward(x)[0][0]
            assert q.tobytes() == want.tobytes()
            state[v] = q
        prev = state

"""Dynamic network: forward semantics, targets, training, gradients."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cdgwl import (
    ADD,
    ATTR_CHANGE,
    Cdg,
    CdgError,
    CdynTarget,
    CgnnModel,
    DELETE,
    DimensionMismatchError,
    EDGE,
    EmptyInputError,
    Event,
    GeneratorConfig,
    InvalidBoundError,
    LengthMismatchError,
    MalformedTargetError,
    Mlp,
    NODE,
    NUMERIC,
    PER_INTERVAL,
    SHARED_DT,
    SgnnConfig,
    StartGraph,
    TargetNotCutRespectingError,
    TargetUndefinedError,
    TemporalConfig,
    cgnn_forward,
    cut_trajectories,
    expressivity_check,
    generate,
    generate_isomorphic_pair,
    gradient_check,
    loss_and_gradients,
    make_pair,
    model_params_json,
    readout,
    relabel_cdg,
    replay,
    run_experiment,
    snapshots,
    six_cycle,
    symbolic_state_trajectories,
    timestamps,
    train_to_target,
    training_loss,
    two_triangles,
    universe,
)
from cdgwl import cgnn, experiments
from conftest import A, B, churn_cdg, delete_readd_cdg, k3, sgnn_forward, static_cdg


def numeric_cfg(layers=2, hidden=4, state=4, mode=PER_INTERVAL):
    sg = SgnnConfig(mode=NUMERIC, layers=layers, hidden_dim=hidden, mlp_hidden=8)
    tc = TemporalConfig(mode=mode, state_dim=state, mlp_hidden=8)
    return sg, tc


def test_isolated_node_uses_empty_sum():
    g = Cdg(StartGraph({"a": A}, {}))
    sg, tc = numeric_cfg(layers=1)
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=0, seed=0)
    h = sgnn_forward(replay(g, 0.0), universe(g), model)["a"]
    x = np.concatenate([np.asarray(A), np.zeros(sg.hidden_dim)])[None, :]
    expected = model.comb[0].forward(x)[0][0]
    assert h.tobytes() == expected.tobytes()


def test_equivalent_nodes_get_bitwise_equal_embeddings():
    # path endpoints are refinement-equivalent; sums must agree exactly
    g = Cdg(StartGraph({"a": A, "b": A, "c": A}, {("a", "b"): A, ("b", "c"): A}))
    sg, tc = numeric_cfg(layers=3)
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=0, seed=1)
    h = sgnn_forward(replay(g, 0.0), universe(g), model)
    assert h["a"].tobytes() == h["c"].tobytes()
    assert h["a"].tobytes() != h["b"].tobytes()


def test_start_only_stream_state_equals_embedding():
    g = static_cdg(k3())
    sg, tc = numeric_cfg()  # hidden == state, no adapter
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=0, seed=2)
    sm = cgnn_forward(g, model)
    assert len(sm) == 1
    for v in universe(g):
        assert sm[0].state[v].tobytes() == sm[0].hidden[v].tobytes()


def test_absent_node_state_is_none_and_restart_is_fresh():
    g = delete_readd_cdg()
    sg, tc = numeric_cfg()
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=len(g.events), seed=3)
    sm = cgnn_forward(g, model)
    assert sm[1].state["b"] is None and sm[1].hidden["b"] is None
    # reappearing node restarts from its fresh embedding (no recurrent cell)
    fresh = sgnn_forward(replay(g, 2.0), universe(g), model)["b"]
    assert sm[2].state["b"].tobytes() == fresh.tobytes()
    # the continuously-present node does pass through the cell
    assert sm[2].state["a"].tobytes() != sm[2].hidden["a"].tobytes()


def test_state_matrix_equality_is_identity_and_never_raises():
    g = delete_readd_cdg()
    sg, tc = numeric_cfg()
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=len(g.events), seed=3)
    first, second = cgnn_forward(g, model), cgnn_forward(g, model)
    assert first[0] == first[0] and first[0] != second[0]
    assert first[0] in first and second[0] not in first
    assert len({first[0], first[0], second[0]}) == 2
    # two results are compared row by row, and these rows are equal
    for a, b in zip(first, second):
        for v in universe(g):
            assert (a.state[v] is None) == (b.state[v] is None)
            if a.state[v] is not None:
                assert np.array_equal(a.state[v], b.state[v])
                assert np.array_equal(a.hidden[v], b.hidden[v])


def test_symbolic_restart_reuses_hidden_id():
    g = delete_readd_cdg()
    hidden, states = symbolic_state_trajectories([g])
    assert states[0]["b"][1] is None
    assert states[0]["b"][2] == hidden[0]["b"][2]
    assert states[0]["a"][2] != hidden[0]["a"][2]


def test_adapter_bridges_dimension_mismatch():
    g = delete_readd_cdg()
    sg, tc = numeric_cfg(hidden=3, state=5)
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=len(g.events), seed=4)
    assert model.adapter is not None
    sm = cgnn_forward(g, model)
    assert sm[0].state["a"].shape == (5,)
    assert sm[0].hidden["a"].shape == (3,)


def test_readout_conventions():
    g = delete_readd_cdg()
    sg, tc = numeric_cfg()
    model = CgnnModel.init(1, 2, sg, tc, n_intervals=len(g.events), seed=5)
    sm = cgnn_forward(g, model)
    out = readout(sm[1], model)
    assert np.array_equal(out["b"], np.zeros(2))
    assert out["a"].shape == (2,)


def test_permutation_equivariance_bitwise():
    g1 = generate(GeneratorConfig(n_nodes=5, n_events=4), seed=6)
    mapping = {v: f"m{i}" for i, v in enumerate(universe(g1))}
    g2 = relabel_cdg(g1, mapping)
    sg, tc = numeric_cfg(layers=2)
    model = CgnnModel.init(g1.dim, 1, sg, tc, n_intervals=len(g1.events), seed=7)
    sm1, sm2 = cgnn_forward(g1, model), cgnn_forward(g2, model)
    for i in range(len(sm1)):
        for v in universe(g1):
            a, b = sm1[i].state[v], sm2[i].state[mapping[v]]
            assert (a is None) == (b is None)
            if a is not None:
                assert a.tobytes() == b.tobytes()


def test_model_init_guards():
    with pytest.raises(ValueError):
        CgnnModel.init(1, 1, SgnnConfig(mode=NUMERIC, layers=None), TemporalConfig(), 2)
    with pytest.raises(ValueError):
        CgnnModel.init(1, 1, SgnnConfig(mode=NUMERIC, layers=0), TemporalConfig(), 2)
    with pytest.raises(ValueError):
        CgnnModel.init(1, 1, SgnnConfig(mode="bogus"), TemporalConfig(), 2)
    with pytest.raises(ValueError):
        CgnnModel.init(1, 1, SgnnConfig(mode=NUMERIC), TemporalConfig(mode="bogus"), 2)
    with pytest.raises(ValueError, match="unknown encoder mode 'symbolic'"):
        CgnnModel.init(1, 1, SgnnConfig(mode="symbolic"), TemporalConfig(), 2)
    for sg, tc, message in [
        (SgnnConfig(layers=0), TemporalConfig(), "SgnnConfig.layers must be at least 1, got 0"),
        (SgnnConfig(hidden_dim=0), TemporalConfig(), "SgnnConfig.hidden_dim must be at least 1"),
        (SgnnConfig(hidden_dim=-2), TemporalConfig(), "SgnnConfig.hidden_dim must be at least 1"),
        (SgnnConfig(mlp_hidden=0), TemporalConfig(), "SgnnConfig.mlp_hidden must be at least 1"),
        (SgnnConfig(), TemporalConfig(state_dim=0), "TemporalConfig.state_dim must be at least 1"),
        (SgnnConfig(), TemporalConfig(mlp_hidden=0), "TemporalConfig.mlp_hidden must be at least"),
    ]:
        with pytest.raises(InvalidBoundError, match=message):
            CgnnModel.init(1, 1, sg, tc, 2)


def test_expressivity_check_on_random_pairs():
    pairs = [make_pair(21, i) for i in range(6)]
    report = expressivity_check(pairs, seeds=2, layers=2)
    assert report.ok
    assert report.instances == 6
    assert report.symbolic_exact == 6


def test_expressivity_check_needs_a_numeric_seed():
    with pytest.raises(InvalidBoundError, match="seeds must be at least 1, got 0") as err:
        expressivity_check([make_pair(21, 0)], seeds=0)
    assert isinstance(err.value, CdgError) and isinstance(err.value, ValueError)


def test_expressivity_check_needs_a_layer_count():
    with pytest.raises(InvalidBoundError, match="layers must be at least 1, got None"):
        expressivity_check([make_pair(21, 0)], layers=None)


def test_expressivity_on_blind_spot_pair():
    tri, cyc = two_triangles(), six_cycle()
    report = expressivity_check([(tri, cyc)], seeds=2, layers=3)
    assert report.ok
    _, states = symbolic_state_trajectories([tri, cyc])
    trajs = {tr for side in states for tr in (tuple(t) for t in side.values())}
    assert len(trajs) == 1  # neither mode separates any node across the pair


def test_target_conflicts_detected():
    with pytest.raises(TargetNotCutRespectingError):
        CdynTarget.from_entries([(0, (1,), (1.0,)), (0, (1,), (2.0,))], 1)
    # consistent duplicates are fine
    t = CdynTarget.from_entries([(0, (1,), (1.0,)), (0, (1,), (1.0,))], 1)
    assert t.value_for(0, (1,)) == (1.0,)


def test_target_lookup_and_json_round_trip():
    t = CdynTarget.from_entries([(1, (4, 7), (0.5, 1.5))], 2, default=(0.0, 0.0))
    assert t.value_for(1, (4, 7)) == (0.5, 1.5)
    assert t.value_for(0, (9,)) == (0.0, 0.0)
    back = CdynTarget.from_json(t.to_json())
    assert back.table == t.table and back.default == t.default and back.output_dim == 2
    bare = CdynTarget.from_entries([(0, (3,), (1.0,))], 1)
    with pytest.raises(KeyError):
        bare.value_for(0, (99,))


@pytest.mark.parametrize("args, field", [
    (([], 0), "output_dim"),
    (([], 1.0), "output_dim"),
    (([], 2, (1.0,)), "default"),
    (([], 1, (math.inf,)), "default"),
    (([(-1, (1,), (1.0,))], 1), "entries[0].t"),
    (([(0, ("a",), (1.0,))], 1), "entries[0].prefix"),
    (([(0, (1,), (1.0,)), (0, (2,), (math.nan,))], 1), "entries[1].value"),
    (([(0, (1,), (10**400,))], 1), "entries[0].value"),
    (([(0, (1,), (1.0, 2.0))], 1), "entries[0].value"),
])
def test_from_entries_names_the_field_as_from_json_does(args, field):
    # the Python API holds every rule of the file format, so a wrong-length
    # default fails here and not later inside a training batch
    with pytest.raises(MalformedTargetError) as err:
        CdynTarget.from_entries(*args)
    assert err.value.field == field


def test_a_target_that_is_not_json_is_a_malformed_target():
    with pytest.raises(MalformedTargetError, match=r"^target: invalid JSON \(") as err:
        CdynTarget.from_json("{nope")
    assert err.value.field is None


def test_prefix_indicator_marks_anchor_class():
    g = static_cdg(k3())
    target = CdynTarget.prefix_indicator([g], 0, "a")
    prefix = cut_trajectories([g])[0]["a"].sigs
    assert target.value_for(0, prefix[:1]) == (1.0,)
    assert target.value_for(0, (99999,)) == (0.0,)


def test_training_is_seed_deterministic():
    corpus = [generate(GeneratorConfig(n_nodes=3, n_events=2), seed=40)]
    target = CdynTarget.from_entries([], 1, default=(0.25,))
    r1 = train_to_target(corpus, target, *numeric_cfg(layers=1), steps=50, lr=0.2, seed=9)
    r2 = train_to_target(corpus, target, *numeric_cfg(layers=1), steps=50, lr=0.2, seed=9)
    assert r1.final_loss == r2.final_loss
    assert r1.initial_loss == r2.initial_loss


@pytest.mark.parametrize("mode", [PER_INTERVAL, SHARED_DT])
def test_gradient_check_default_activation(mode):
    probe = generate(GeneratorConfig(n_nodes=3, n_events=2), seed=51)
    sg, tc = numeric_cfg(layers=2, mode=mode)
    assert gradient_check(probe, sg, tc, n_samples=40, seed=2) <= 1e-4


def test_gradient_check_covers_adapter():
    probe = generate(GeneratorConfig(n_nodes=3, n_events=2), seed=52)
    sg, tc = numeric_cfg(hidden=3, state=5)
    assert gradient_check(probe, sg, tc, n_samples=60, seed=3) <= 1e-4


def test_gradient_check_needs_a_sample():
    # a check of no parameter would report 0.0 and pass whatever the gradients are
    probe = generate(GeneratorConfig(n_nodes=3, n_events=2), seed=53)
    for n_samples in (0, -3):
        with pytest.raises(InvalidBoundError, match="samples must be at least 1") as err:
            gradient_check(probe, *numeric_cfg(), n_samples=n_samples)
        assert isinstance(err.value, ValueError)


def test_gradient_check_needs_a_live_node():
    # with no live (timestamp, node) slot the loss is 0 whatever the parameters
    probe = Cdg(StartGraph({}, {}), dim=1)
    with pytest.raises(EmptyInputError, match="no live node"):
        gradient_check(probe, *numeric_cfg())


def test_gradient_check_keeps_a_nan_error(monkeypatch):
    # max(0.0, nan) is 0.0, so a fold with max() would report a clean check
    loss = cgnn._loss

    def nan_loss(model, batch, with_grads=False):
        return loss(model, batch, True) if with_grads else float("nan")

    monkeypatch.setattr(cgnn, "_loss", nan_loss)
    probe = generate(GeneratorConfig(n_nodes=3, n_events=2), seed=53)
    assert math.isnan(gradient_check(probe, *numeric_cfg(), n_samples=5))


def test_training_loss_matches_gradient_path_loss():
    corpus = [generate(GeneratorConfig(n_nodes=3, n_events=2), seed=60)]
    target = CdynTarget.from_entries([], 1, default=(0.1,))
    sg, tc = numeric_cfg(layers=1)
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=2, seed=11)
    from cdgwl import loss_and_gradients

    loss_a = training_loss(model, corpus, target)
    loss_b, grads = loss_and_gradients(model, corpus, target)
    assert loss_a == loss_b
    assert set(grads) == {name for name, _ in model.parameters()}


@pytest.mark.parametrize("width", range(1, 18), ids=lambda width: f"tanh-{width}")
def test_mlp_rows_do_not_depend_on_the_batch(width):
    # a row's output must be bitwise the same alone, in any batch, at any
    # position and through a strided view: criterion 6 rests on it
    rng = np.random.default_rng([width, 1])
    mlp = Mlp.init(rng, width, 16, int(rng.integers(1, 18)))
    base = rng.normal(size=(306, 2 * width))
    views = [np.ascontiguousarray(base[:, :width]), base[:, :width], base[:, ::2]]
    for x in views:
        for n in (1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 64, 129, 300):
            for shift in (0, 1, 6 - (n % 7)):
                batch = x[shift : shift + n]
                y = mlp.forward(batch)[0]
                for i in range(n):
                    alone = mlp.forward(batch[i : i + 1])[0]
                    assert y[i].tobytes() == alone[0].tobytes(), (n, shift, i)


def test_message_sum_ignores_edge_order():
    # the same star built with its edges in opposite orders: the center's
    # messages must be summed in one canonical order either way
    leaves = {f"l{i}": (float(i) * 0.37 + 0.1,) for i in range(7)}
    edges = [(("c", v), a) for v, a in leaves.items()]
    nodes = {"c": A, **leaves}
    g1 = Cdg(StartGraph(nodes, dict(edges)))
    g2 = Cdg(StartGraph(nodes, dict(reversed(edges))))
    for seed in range(8):
        model = CgnnModel.init(1, 1, *numeric_cfg(layers=2), n_intervals=0, seed=seed)
        h1 = sgnn_forward(replay(g1, 0.0), universe(g1), model)["c"]
        h2 = sgnn_forward(replay(g2, 0.0), universe(g2), model)["c"]
        assert h1.tobytes() == h2.tobytes()


def edge_free_cdg():
    return Cdg(
        StartGraph({"x": A, "y": B}, {}),
        (
            Event(1.0, NODE, "z", ADD, A),
            Event(2.0, NODE, "x", ATTR_CHANGE, B),
            Event(3.5, NODE, "w", ADD, B),
        ),
    )


@pytest.mark.parametrize("mode", [SHARED_DT, PER_INTERVAL])
def test_cross_graph_batching_is_exact(mode):
    corpus = [
        edge_free_cdg(),
        delete_readd_cdg(),
        generate(GeneratorConfig(n_nodes=4, n_events=3), seed=70),
    ]
    prefixes = cut_trajectories(corpus)
    target = CdynTarget.prefix_indicator(corpus, 1, "a")
    sg, tc = numeric_cfg(hidden=3, state=5, mode=mode)
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=3, seed=12)
    assert model.adapter is not None
    loss, grads = loss_and_gradients(model, corpus, target, prefixes)
    terms, weighted_loss = 0, 0.0
    weighted = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    for gi, g in enumerate(corpus):
        states = cgnn_forward(g, model)
        n_g = sum(q is not None for sm in states for q in sm.state.values())
        loss_g, grads_g = loss_and_gradients(model, [g], target, [prefixes[gi]])
        terms += n_g
        weighted_loss += loss_g * n_g
        for name in weighted:
            weighted[name] += grads_g[name] * n_g
        # one snapshot alone embeds bitwise as it does inside its whole stream
        for snap, sm in zip(snapshots(g), states):
            alone = sgnn_forward(snap, universe(g), model)
            for v, h in sm.hidden.items():
                assert (h is None) == (alone[v] is None)
                if h is not None:
                    assert h.tobytes() == alone[v].tobytes()
    assert abs(loss * terms - weighted_loss) <= 1e-12
    for name, grad in grads.items():
        np.testing.assert_allclose(grad * terms, weighted[name], rtol=0, atol=1e-12)


def test_forward_encodes_only_rows_whose_ball_changed():
    # one event changes few L-hop balls: a slot whose ball did not change
    # reuses its node's rows from the previous timestamp
    g, _, _ = generate_isomorphic_pair(
        GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1), 0
    )
    model = CgnnModel.init(1, 1, SgnnConfig(mode=NUMERIC, layers=3), TemporalConfig(),
                           n_intervals=len(g.events), seed=0)
    rows = []
    for mlp in model.comb:
        def counted(x, forward=mlp.forward):
            rows.append(len(x))
            return forward(x)
        mlp.forward = counted
    states = cgnn_forward(g, model)
    slots = sum(q is not None for sm in states for q in sm.state.values())
    assert slots == 3510
    assert sum(rows) <= 3 * slots // 4
    # a training batch is the same walk with every row new: one row per slot
    # and layer, and its embeddings are the forward pass's, bit for bit
    encoded = []

    def kept(x, forward=model.comb[-1].forward):
        y, cache = forward(x)
        encoded.append(y)
        return y, cache

    model.comb[-1].forward = kept
    rows.clear()
    loss_and_gradients(model, [g], CdynTarget.from_entries([], 1, default=(0.0,)))
    assert rows == [slots] * 3
    hidden = [h for sm in states for h in sm.hidden.values() if h is not None]
    assert encoded[0].tobytes() == np.stack(hidden).tobytes()


SCALED = GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1)


@pytest.mark.parametrize("make", [
    delete_readd_cdg,
    lambda: generate_isomorphic_pair(SCALED, 0)[0],
    lambda: generate_isomorphic_pair(SCALED, 0)[1],
    lambda: generate(SCALED, 1),
    lambda: generate(SCALED, 2),
], ids=["delete-readd", "iso-a", "iso-b", "div-1", "div-2"])
def test_state_maps_are_read_only_views_of_the_forward_matrices(make):
    g = make()
    us = universe(g)
    model = CgnnModel.init(1, 2, *numeric_cfg(layers=3, hidden=3, state=5),
                           n_intervals=len(g.events), seed=8)
    states = cgnn_forward(g, model)
    # the reference: each slot's rows of the batch's matrices, placed by its
    # graph, timestamp and universe position
    batch = cgnn._Batch([cgnn._stream(g)], 1, 3)
    h, _ = cgnn._encode(model, batch)
    q, _ = cgnn._temporal(model, batch, h)
    y, _ = model.readout_net.forward(q)
    want = {}
    for k, (gi, i, p) in enumerate(batch.slots.T.tolist()):
        assert gi == 0
        want[i, us[p]] = (h[k].tobytes(), q[k].tobytes(), y[k].tobytes())
    snaps = snapshots(g)
    assert len(want) == sum(len(snap.nodes) for snap in snaps)
    assert len(states) == len(snaps)
    for i, (snap, sm) in enumerate(zip(snaps, states)):
        assert sm.time == snap.time
        for m in (sm.hidden, sm.state):
            assert list(m) == list(us) and len(m) == len(us)
            with pytest.raises(KeyError):
                m["not a node"]
            assert m.get("not a node") is None
            with pytest.raises(TypeError):
                m[us[0]] = None
        out = readout(sm, model)
        assert list(out) == list(us)
        for v in us:
            got = sm.hidden.get(v), sm.state.get(v)
            if (i, v) not in want:
                assert v not in snap.nodes and got == (None, None)
                assert out[v].tobytes() == np.zeros(2).tobytes()
            else:
                assert v in snap.nodes
                assert (got[0].tobytes(), got[1].tobytes(), out[v].tobytes()) == want[i, v]
    for sm in (states[0], states[-1]):
        for m in (sm.hidden, sm.state):
            assert dict(m).keys() == m.keys()
            assert repr(m) == repr(dict(m)) and "object at" not in repr(sm)
    alone = sgnn_forward(snaps[0], us, model)
    assert list(alone) == list(us)
    for v, row in alone.items():
        assert (row is None) == (v not in snaps[0].nodes)
        if row is not None:
            assert row.tobytes() == want[0, v][0]


def reference_layout(corpus, layers, every=False):
    """The slot layout of a batch over ``corpus``, from its snapshots.

    Slots by graph, timestamp and universe position; fresh slots; per
    interval (index, previous slots, current slots, elapsed times); and each
    slot's last-layer row.  A live node gets a new last-layer row when it is
    within ``layers`` hops of a node that (re)appeared or that a node event
    hit, or within ``layers - 1`` hops of a node whose edges an event
    changed, in the snapshot's adjacency; with ``every`` (a target), always.
    Rows are numbered in the order of (graph, timestamp, position), and
    every other slot reads its node's latest row.
    """
    slots, fresh, intervals, out, rows = [], [], {}, [], 0
    for gi, g in enumerate(corpus):
        us, snaps, times, latest = universe(g), snapshots(g), timestamps(g), {}
        for i, snap in enumerate(snaps):
            prev = snaps[i - 1].nodes if i else {}
            adj = {v: set() for v in snap.nodes}
            for a, b in snap.edges:
                adj[a].add(b)
                adj[b].add(a)
            hit, linked = {v for v in snap.nodes if v not in prev}, set()
            if i:
                e = g.events[i - 1]
                if e.item == NODE:
                    hit.add(e.key)
                    if e.kind == DELETE:
                        linked = {u for pair in snaps[i - 1].edges if e.key in pair for u in pair}
                else:
                    linked = set(e.key)
            # distance from the sources: hit nodes at 0, linked ones at 1
            dist = {v: 0 for v in hit if v in adj}
            dist.update({v: 1 for v in linked if v in adj and v not in dist})
            todo = sorted(dist, key=dist.get)
            for v in todo:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        todo.append(u)
            for p, v in enumerate(us):
                if v not in snap.nodes:
                    continue
                k = len(slots)
                slots.append((gi, i, p))
                if v in prev:
                    before, now, dts = intervals.setdefault(i, ([], [], []))
                    before.append(latest[v][0])
                    now.append(k)
                    dts.append(times[i] - times[i - 1])
                else:
                    fresh.append(k)
                if every or dist.get(v, layers + 1) <= layers:
                    latest[v] = (k, rows)
                    rows += 1
                else:
                    latest[v] = (k, latest[v][1])
                out.append(latest[v][1])
    return slots, fresh, sorted((i, *lists) for i, lists in intervals.items()), out


def layout_of(batch):
    assert batch.slots.dtype == batch.fresh.dtype == batch.out.dtype == np.intp
    intervals = []
    for i, before, now, dts in batch.intervals:
        assert type(i) is int and before.dtype == now.dtype == np.intp
        assert dts.dtype == float and dts.shape == (len(now), 1)
        intervals.append((i, before.tolist(), now.tolist(), dts[:, 0].tolist()))
    slots = [tuple(s) for s in batch.slots.T.tolist()]
    return slots, batch.fresh.tolist(), intervals, batch.out.tolist()


LAYOUT_CORPORA = {
    "delete-readd and churn": lambda: [delete_readd_cdg(), churn_cdg()],
    "unequal lengths": lambda: [
        churn_cdg(), delete_readd_cdg(), static_cdg(k3(), 1),
        generate(GeneratorConfig(n_nodes=7, n_events=5), seed=3),
    ],
    "generated, other universes": lambda: [
        generate(GeneratorConfig(n_nodes=n, n_events=9, p_start_edge=0.5), seed=n)
        for n in (2, 5, 8)
    ],
    "node churn": lambda: [
        Cdg(
            StartGraph({"a": A, "b": A, "c": B}, {("a", "b"): A, ("b", "c"): A}),
            (
                Event(1.0, NODE, "b", DELETE),
                Event(2.0, NODE, "b", ADD, B),
                Event(2.5, EDGE, ("a", "b"), ADD, A),
                Event(4.0, NODE, "a", DELETE),
                Event(4.5, NODE, "c", ATTR_CHANGE, A),
                Event(6.0, NODE, "a", ADD, A),
            ),
        ),
        make_pair(0, 4)[0],
    ],
    "scaled pair": lambda: list(generate_isomorphic_pair(
        GeneratorConfig(n_nodes=40, n_events=150, dim=1, attr_values=3, p_start_edge=0.1), 0
    )[:2]),
}


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("name", sorted(LAYOUT_CORPORA))
def test_the_batch_layout_follows_the_snapshots(name, layers):
    corpus = LAYOUT_CORPORA[name]()
    batch = cgnn._Batch([cgnn._stream(g) for g in corpus], corpus[0].dim, layers)
    want = reference_layout(corpus, layers)
    assert layout_of(batch) == want
    # the slot table: each (graph, timestamp, position)'s slot, or -1
    table = np.full(batch.slot_table.shape, -1)
    table[tuple(batch.slots)] = np.arange(len(want[0]))
    assert batch.slot_table.shape[1:] == (
        max(len(g.events) for g in corpus) + 1, max(len(universe(g)) for g in corpus)
    )
    assert np.array_equal(batch.slot_table, table)


def test_a_training_batch_lays_out_every_row_new():
    corpus = experiments.approximation_corpus(2, 6)
    target = CdynTarget.prefix_indicator(corpus, 1, universe(corpus[1])[0])
    model = CgnnModel.init(1, 1, *numeric_cfg(layers=3), n_intervals=len(corpus[0].events))
    batch = cgnn._corpus_batch(model, corpus, target, None)
    want = reference_layout(corpus, 3, every=True)
    assert layout_of(batch) == want
    assert batch.out.tolist() == list(range(len(want[0])))
    prefixes = cut_trajectories(corpus)
    assert batch.targets.tolist() == [
        list(target.value_for(i, prefixes[gi][universe(corpus[gi])[p]].sigs[: i + 1]))
        for gi, i, p in want[0]
    ]


def test_a_forward_result_holds_its_matrices_not_a_row_object_per_slot():
    # the stream of ``cdgwl gen --n-nodes 60 --events 200 --seed 1``
    g = generate(GeneratorConfig(n_nodes=60, n_events=200), seed=1)
    model = CgnnModel.init(1, 1, SgnnConfig(), TemporalConfig(), n_intervals=len(g.events), seed=0)
    cgnn_forward(g, model)  # whatever a first call leaves behind is not the result
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        states = cgnn_forward(g, model)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    slots = sum(q is not None for sm in states for q in sm.state.values())
    matrices = slots * (model.sgnn.hidden_dim + model.temporal.state_dim) * 8
    table = len(states) * len(universe(g)) * np.dtype(np.intp).itemsize
    assert held <= 1.5 * (matrices + table)


def test_a_model_of_another_attribute_dimension_is_rejected():
    g = generate(GeneratorConfig(n_nodes=3, n_events=2, dim=2), seed=1)
    model = CgnnModel.init(1, 1, *numeric_cfg(), n_intervals=2, seed=0)
    with pytest.raises(DimensionMismatchError):
        cgnn_forward(g, model)
    with pytest.raises(DimensionMismatchError):
        training_loss(model, [g], CdynTarget.from_entries([], 1, default=(0.0,)))


def test_a_per_interval_model_with_too_few_cells_is_rejected():
    g = generate(GeneratorConfig(n_nodes=3, n_events=4), seed=1)
    model = CgnnModel.init(1, 1, *numeric_cfg(mode=PER_INTERVAL), n_intervals=3, seed=0)
    with pytest.raises(LengthMismatchError):
        cgnn_forward(g, model)
    with pytest.raises(LengthMismatchError):
        loss_and_gradients(model, [g], CdynTarget.from_entries([], 1, default=(0.0,)))
    shared = CgnnModel.init(1, 1, *numeric_cfg(mode=SHARED_DT), n_intervals=3, seed=0)
    assert len(cgnn_forward(g, shared)) == 5


@pytest.mark.parametrize("text, field", [
    ('{"output_dim": 1}', "entries"),
    ('{"output_dim": 1, "entries": [{"t": 0, "prefix": [1]}]}', "entries[0].value"),
    ('[{"output_dim": 1}]', None),
    ('{"output_dim": 0, "entries": []}', "output_dim"),
    ('{"output_dim": 2, "default": [1.0], "entries": []}', "default"),
    ('{"output_dim": 1, "entries": [{"t": -1, "prefix": [1], "value": [1]}]}', "entries[0].t"),
    ('{"output_dim": 1, "entries": [{"t": 0, "prefix": ["a"], "value": [1]}]}',
     "entries[0].prefix"),
    ('{"output_dim": 1, "entries": [7]}', "entries[0]"),
])
def test_malformed_target_names_its_field(text, field):
    with pytest.raises(MalformedTargetError) as err:
        CdynTarget.from_json(text)
    assert err.value.field == field


def test_undefined_target_fails_before_any_step():
    corpus = [static_cdg(k3())]
    bare = CdynTarget.from_entries([], 1)
    with pytest.raises(TargetUndefinedError):
        train_to_target(corpus, bare, *numeric_cfg(layers=1), steps=5)


def test_model_params_json_shapes():
    sg, tc = numeric_cfg(layers=1, hidden=3, state=5)
    model = CgnnModel.init(1, 2, sg, tc, n_intervals=2, seed=0)
    obj = json.loads(model_params_json(model))
    for name, arr in model.parameters():
        assert obj[name]["shape"] == list(arr.shape)
        assert len(obj[name]["data"]) == arr.size
    assert "adapter.w" in obj
    assert "cell1.w1" in obj  # one cell block per interval


# steps_run and the SHA-256 of model_params_json per train seed of the default
# approximation run at seed 0: a training batch keeps one encoder row per slot
# in a fixed order, so training stays bitwise where it was.  Taken on x86-64
# with numpy 2.4's bundled OpenBLAS; the backward's matrix products go through
# BLAS, so another BLAS kernel may move the bits
APPROXIMATION_RUNS = (
    (180, "a2daeb440d432a21619cd22022c4d620b7d81cad084cb8e2e7f502d7ca2b1240"),
    (107, "37f1307a7b38b6e0450db1a61e936b61028db1e59d622142ffbb9cde23e154b0"),
    (149, "918c41503d68e3dfa91a0c7ef037c8c4a28a3ab172d94d86dbcd6bd78e9cf57b"),
    (210, "c0e9958053271a5f927f1542d81c6078fb55c0d3b40fc385a8b2f0d908563da7"),
    (167, "8ded4bd9bfa25cc734cfbbc411cdb947cb91dc58255dd3bd6f643ab37f23a5e4"),
)


def test_default_approximation_run_is_pinned(monkeypatch):
    results = []

    def keep(*args, **kwargs):
        stack = cgnn._train_stack(*args, **kwargs)
        results.extend(stack)
        return stack

    monkeypatch.setattr(experiments, "_train_stack", keep)
    report = run_experiment("approximation", seed=0, jobs=1)
    assert report.passed
    assert tuple(run["steps_run"] for run in report.results["runs"]) == tuple(
        steps for steps, _ in APPROXIMATION_RUNS
    )
    assert tuple(
        (r.steps_run, hashlib.sha256(model_params_json(r.model).encode()).hexdigest())
        for r in results
    ) == APPROXIMATION_RUNS


@pytest.mark.parametrize(
    "mode, hidden, goal", [(SHARED_DT, 3, 3e-2), (PER_INTERVAL, 4, 5e-2)], ids=["shared-dt", "per-interval"]
)
def test_a_stack_trains_each_seed_as_its_own_run(mode, hidden, goal):
    # the seeds leave the stack at different steps (one runs out of steps
    # in shared-dt): each keeps the steps, losses and bits of its own run
    corpus = experiments.approximation_corpus(0, 3)
    target = CdynTarget.prefix_indicator(corpus, 0, "n0")
    sg, tc = numeric_cfg(hidden=hidden, mode=mode)
    stacked = cgnn._train_stack(corpus, target, sg, tc, 120, 0.3, range(5), goal)
    assert len({r.steps_run for r in stacked}) > 2
    for seed, got in enumerate(stacked):
        alone = train_to_target(corpus, target, sg, tc, steps=120, lr=0.3, seed=seed, goal=goal)
        assert (got.steps_run, got.initial_loss, got.final_loss) == (
            alone.steps_run, alone.initial_loss, alone.final_loss
        )
        assert model_params_json(got.model) == model_params_json(alone.model)


@pytest.mark.parametrize("mode", [SHARED_DT, PER_INTERVAL])
@pytest.mark.parametrize("hidden", [3, 4], ids=["adapter", "no-adapter"])
def test_a_model_in_a_stack_gets_its_own_gradients(mode, hidden):
    corpus = [delete_readd_cdg(), generate(GeneratorConfig(n_nodes=4, n_events=3), seed=70)]
    target = CdynTarget.prefix_indicator(corpus, 1, "n0")
    sg, tc = numeric_cfg(hidden=hidden, mode=mode)
    models = [CgnnModel.init(1, 1, sg, tc, n_intervals=3, seed=s) for s in (4, 5, 6)]
    stack, _flat, _gflat, grads = cgnn._flatten(models)
    loss, _ = cgnn._loss(stack, cgnn._corpus_batch(models[0], corpus, target, None), True, grads)
    for b, model in enumerate(models):
        want_loss, want = loss_and_gradients(model, corpus, target)
        assert loss[b] == want_loss
        assert [name for name, _ in model.parameters()] == list(want) == list(grads)
        for name, grad in want.items():
            assert grads[name][b].tobytes() == grad.tobytes(), name


@pytest.mark.parametrize("stacked", [False, True], ids=["one-model", "stack-of-three"])
def test_a_loss_only_pass_gives_the_bits_of_a_gradient_pass(stacked):
    corpus = [delete_readd_cdg(), generate(GeneratorConfig(n_nodes=4, n_events=3), seed=70)]
    target = CdynTarget.prefix_indicator(corpus, 1, "n0")
    sg, tc = numeric_cfg(hidden=3)
    models = [CgnnModel.init(1, 1, sg, tc, n_intervals=3, seed=s) for s in (4, 5, 6)]
    model = cgnn._flatten(models)[0] if stacked else models[0]
    batch = cgnn._corpus_batch(models[0], corpus, target, None)
    loss, (with_grads, _) = cgnn._loss(model, batch), cgnn._loss(model, batch, True)
    assert type(loss) is type(with_grads)
    assert np.asarray(loss).tobytes() == np.asarray(with_grads).tobytes()


def test_only_a_gradient_pass_keeps_caches(monkeypatch):
    corpus = [generate(GeneratorConfig(n_nodes=4, n_events=3), seed=70)]
    target = CdynTarget.from_entries([], 1, default=(0.25,))
    model = CgnnModel.init(1, 1, *numeric_cfg(), n_intervals=3, seed=1)
    batch = cgnn._corpus_batch(model, corpus, target, None)
    h, caches = cgnn._encode(model, batch)
    assert caches is None
    assert cgnn._temporal(model, batch, h)[1] is None
    handed = []

    def spy(fn):
        def wrapped(*args):
            out = fn(*args)
            handed.append(out[1])
            return out

        return wrapped

    monkeypatch.setattr(cgnn, "_encode", spy(cgnn._encode))
    monkeypatch.setattr(cgnn, "_temporal", spy(cgnn._temporal))
    cgnn_forward(corpus[0], model)
    training_loss(model, corpus, target)
    assert handed == [None] * 4
    handed.clear()
    loss_and_gradients(model, corpus, target)
    assert [len(c) for c in handed] == [model.sgnn.layers, len(batch.intervals)]


def reference_encode(model, batch, canonical=True):
    # the encoder with each receiver's messages added one at a time from
    # +0.0, in the bit order of their inputs, or else in input order
    h = batch.attrs
    for li, (own, recv, send, edge_attrs) in enumerate(batch.layers):
        x = np.concatenate([h[send], edge_attrs], axis=1)
        m = np.zeros((len(own), model.sgnn.hidden_dim))
        if len(recv):
            msgs, _ = model.aggr[li].forward(x)
            edges = range(len(recv))
            if canonical:
                edges = sorted(edges, key=lambda e: (recv[e], *x[e].view(np.int64)))
            for e in edges:
                m[recv[e]] += msgs[e]
        h, _ = model.comb[li].forward(np.concatenate([h[own], m], axis=1))
    return h[batch.out]


def test_encode_sums_messages_in_canonical_order():
    # the center's messages are -1e16, 1e16 and 1 in edge order (from leaves
    # of attribute -1, 1 and 0): summed in input order they give 1, in the
    # bit order of their inputs (-1, 0, 1) they give 0
    nodes = {"c": (0.5,), "p": (-1.0,), "q": (1.0,), "z": (0.0,)}
    g = Cdg(StartGraph(nodes, {("c", v): (0.0,) for v in "pqz"}))
    model = CgnnModel.init(1, 1, *numeric_cfg(layers=1, hidden=2), n_intervals=0, seed=0)
    model.aggr[0] = Mlp(np.array([[50.0, 0.0]]), np.zeros(1), np.full((2, 1), 1e16), np.ones(2))
    batch = cgnn._Batch([cgnn._stream(g)], 1, 1)
    h, _ = cgnn._encode(model, batch)
    assert h.tobytes() == reference_encode(model, batch).tobytes()
    assert h.tobytes() != reference_encode(model, batch, canonical=False).tobytes()
    # every layer, on streams, with messages of widely spread magnitudes
    for seed in range(4):
        g = generate(GeneratorConfig(n_nodes=6, n_events=6, p_start_edge=0.6), seed=seed)
        model = CgnnModel.init(1, 1, *numeric_cfg(layers=3), n_intervals=6, seed=seed)
        for mlp in model.aggr:
            mlp.w2 *= 1e12
        batch = cgnn._Batch([cgnn._stream(g)], 1, 3)
        assert cgnn._encode(model, batch)[0].tobytes() == reference_encode(model, batch).tobytes()


def test_a_shared_batch_gives_each_model_the_bits_of_a_fresh_one():
    # layer 0's rows, message inputs and summation order are kept in the
    # batch: they must not depend on the model that reads them
    corpus = [generate(GeneratorConfig(n_nodes=4, n_events=3), seed=s) for s in (70, 71)]
    target = CdynTarget.from_entries([], 1, default=(0.25,))
    sg, tc = numeric_cfg()
    models = [CgnnModel.init(1, 1, sg, tc, n_intervals=3, seed=s) for s in (1, 2, 1)]
    shared = cgnn._corpus_batch(models[0], corpus, target, None)
    for model in models:
        fresh = cgnn._corpus_batch(model, corpus, target, None)
        loss, grads = cgnn._loss(model, shared, True)
        want_loss, want_grads = cgnn._loss(model, fresh, True)
        assert loss == want_loss
        for name, grad in grads.items():
            assert grad.tobytes() == want_grads[name].tobytes(), name


def test_one_training_step_is_one_gradient_step():
    corpus = [generate(GeneratorConfig(n_nodes=4, n_events=3), seed=72)]
    target = CdynTarget.from_entries([], 1, default=(0.5,))
    sg, tc = numeric_cfg(hidden=3)  # hidden != state: the adapter is trained too
    lr = 0.3
    trained = train_to_target(corpus, target, sg, tc, steps=1, lr=lr, seed=9)
    assert trained.steps_run == 1
    model = CgnnModel.init(1, 1, sg, tc, n_intervals=3, seed=9)
    _, g0 = loss_and_gradients(model, corpus, target)
    assert [name for name, _ in trained.model.parameters()] == list(g0)
    for (name, p1), (_, p0) in zip(trained.model.parameters(), model.parameters()):
        assert p1.tobytes() == (p0 - lr * g0[name]).tobytes(), name


def test_loss_and_gradients_returns_fresh_arrays():
    # also for a trained model, whose parameters are views of one vector
    corpus = [generate(GeneratorConfig(n_nodes=3, n_events=2), seed=74)]
    target = CdynTarget.from_entries([], 1, default=(0.5,))
    model = train_to_target(corpus, target, *numeric_cfg(), steps=2, seed=3).model
    _, first = loss_and_gradients(model, corpus, target)
    _, second = loss_and_gradients(model, corpus, target)
    arrays = [*first.values(), *second.values(), *(arr for _, arr in model.parameters())]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_training_needs_a_live_node():
    # with no live (timestamp, node) slot the loss is 0 whatever the
    # parameters, which would read as a perfect fit
    corpus = [Cdg(StartGraph({}, {}), dim=1)] * 2
    target = CdynTarget.from_entries([], 1, default=(1.0,))
    with pytest.raises(EmptyInputError, match="no live node"):
        train_to_target(corpus, target, *numeric_cfg(), steps=5)
    model = CgnnModel.init(1, 1, *numeric_cfg(), n_intervals=0, seed=0)
    for loss in (training_loss, loss_and_gradients):
        with pytest.raises(EmptyInputError, match="no live node"):
            loss(model, corpus, target)

"""Stream replay semantics, validation diagnostics, snapshot accessors."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdgwl import (
    ADD,
    ATTR_CHANGE,
    AddExistingError,
    AttrChangeMissingError,
    Cdg,
    CdgError,
    DELETE,
    DeleteMissingError,
    EDGE,
    EdgeEndpointMissingError,
    Event,
    GeneratorConfig,
    InvalidCdgError,
    NODE,
    Snapshot,
    StartGraph,
    UnknownTimestampError,
    adjacency,
    apply_event,
    attr_bytes,
    edge_key,
    generate,
    replay,
    snapshots,
    timestamps,
    universe,
    validate_stream,
)
from conftest import A, B, churn_cdg, delete_readd_cdg


def test_replay_is_fold_of_apply_event():
    # oracle: replay(t_i) must equal apply_event applied cumulatively
    for seed in range(20):
        g = generate(GeneratorConfig(n_nodes=5, n_events=6), seed=seed)
        state = snapshots(g)[0]
        assert replay(g, 0.0) == state
        for e in g.events:
            state = apply_event(state, e)
            assert replay(g, e.time) == state


def test_snapshots_align_with_timestamps():
    g = churn_cdg()
    snaps = snapshots(g)
    assert [s.time for s in snaps] == list(timestamps(g))
    assert len(snaps) == 1 + len(g.events)


def test_node_delete_cascades_to_incident_edges():
    g = churn_cdg()
    before = replay(g, 6.5)
    assert ("b", "c") in before.edges
    after = replay(g, 7.0)
    assert "b" not in after.nodes
    assert all("b" not in pair for pair in after.edges)


def test_inclusive_replay_applies_event_at_t():
    g = churn_cdg()
    assert replay(g, 2.0).nodes["a"] == B
    assert replay(g, 1.0).nodes["a"] == A


def test_replay_unknown_timestamp():
    with pytest.raises(UnknownTimestampError):
        replay(churn_cdg(), 1.5)


def test_universe_is_sorted_union_of_start_and_added():
    assert universe(churn_cdg()) == ("a", "b", "c", "d")
    assert universe(delete_readd_cdg()) == ("a", "b")


def test_re_add_after_delete_is_legal():
    g = delete_readd_cdg()
    assert "b" not in replay(g, 1.0).nodes
    assert replay(g, 2.0).nodes["b"] == B


def test_apply_event_rejections():
    s = snapshots(churn_cdg())[0]
    with pytest.raises(AddExistingError):
        apply_event(s, Event(0.5, NODE, "a", ADD, A))
    with pytest.raises(DeleteMissingError):
        apply_event(s, Event(0.5, NODE, "zz", DELETE))
    with pytest.raises(ValueError):
        apply_event(s, Event(0.0, NODE, "z", ADD, A))  # not after snapshot time


@pytest.mark.parametrize(
    "item, key, kind, error, message",
    [
        (NODE, "a", ADD, AddExistingError, "node 'a' already present"),
        (NODE, "x", DELETE, DeleteMissingError, "node 'x' not present"),
        (NODE, "x", ATTR_CHANGE, AttrChangeMissingError, "node 'x' not present"),
        (EDGE, ("a", "b"), ADD, AddExistingError, "edge ('a', 'b') already present"),
        (EDGE, ("x", "y"), ADD, EdgeEndpointMissingError,
         "endpoint 'x' missing for edge ('x', 'y')"),
        (EDGE, ("a", "y"), ADD, EdgeEndpointMissingError,
         "endpoint 'y' missing for edge ('a', 'y')"),
        (EDGE, ("b", "c"), DELETE, DeleteMissingError, "edge ('b', 'c') not present"),
        (EDGE, ("b", "c"), ATTR_CHANGE, AttrChangeMissingError, "edge ('b', 'c') not present"),
    ],
)
def test_apply_event_failure_types_and_messages(item, key, kind, error, message):
    s = snapshots(churn_cdg())[0]  # nodes a, b, c; edge (a, b)
    with pytest.raises(CdgError) as err:
        apply_event(s, Event(0.5, item, key, kind, None if kind == DELETE else A))
    assert type(err.value) is error and str(err.value) == message


def test_validate_stream_collects_diagnostics():
    start = StartGraph({"a": A}, {})
    events = (
        Event(1.0, NODE, "a", ADD, A),        # duplicate add
        Event(2.0, EDGE, ("a", "b"), ADD, A),  # missing endpoint
        Event(2.0, NODE, "b", ADD, A),         # non-increasing time
        Event(3.0, NODE, "c", ATTR_CHANGE, B), # missing target
    )
    problems = validate_stream(start, events)
    assert [p.index for p in problems] == [0, 1, 2, 3]
    assert "already present" in problems[0].message
    assert "not after" in problems[2].message


def test_validate_stream_checks_start_edges_and_dims():
    bad_start = StartGraph({"a": A}, {("a", "b"): A})
    problems = validate_stream(bad_start, ())
    assert problems and problems[0].index is None

    start = StartGraph({"a": A}, {})
    dim_clash = (Event(1.0, NODE, "b", ADD, (1.0, 2.0)),)
    problems = validate_stream(start, dim_clash)
    assert any("dimension" in p.message for p in problems)


def test_cdg_constructor_raises_with_diagnostics():
    with pytest.raises(InvalidCdgError) as err:
        Cdg(StartGraph({"a": A}, {}), (Event(1.0, NODE, "a", ADD, A),))
    assert err.value.diagnostics


def test_edge_key_normalizes_and_rejects_self_loops():
    assert edge_key("b", "a") == ("a", "b")
    with pytest.raises(ValueError):
        edge_key("a", "a")
    with pytest.raises(ValueError):
        Event(1.0, EDGE, ("a", "a"), ADD, A)


@pytest.mark.parametrize("build", [
    lambda: StartGraph({"a": A, 3: A}, {("a", 3): A}),
    lambda: Event(1.0, EDGE, ("a", 3), ADD, A),
], ids=["start-graph", "event"])
def test_mixed_id_edge_is_a_value_error_naming_both_ids(build):
    with pytest.raises(ValueError, match=r"edge \('a', 3\) mixes node id types"):
        build()


def test_event_field_validation():
    with pytest.raises(ValueError):
        Event(1.0, NODE, "a", DELETE, A)      # delete with attribute
    with pytest.raises(ValueError):
        Event(1.0, NODE, "a", ADD)            # add without attribute
    with pytest.raises(ValueError):
        Event(-1.0, NODE, "a", ADD, A)        # negative time
    with pytest.raises(ValueError):
        Event(1.0, NODE, "a", ADD, (float("nan"),))


def test_attr_bytes_is_bitwise():
    assert attr_bytes((1.0,)) == attr_bytes((1.0,))
    assert attr_bytes((0.0,)) != attr_bytes((-0.0,))
    assert attr_bytes((1.0, 2.0)) != attr_bytes((2.0, 1.0))


def test_neighbors_and_adjacency_agree():
    g = churn_cdg()
    for s in snapshots(g):
        adj = adjacency(s)
        assert set(adj) == set(s.nodes)
        for v in s.nodes:
            edges = {(b if a == v else a, w) for (a, b), w in s.edges.items() if v in (a, b)}
            assert set(adj[v]) == edges


def test_dim_inference_requires_an_attribute():
    with pytest.raises(ValueError):
        Cdg(StartGraph({}, {}))


def test_mixed_node_id_types_are_rejected():
    with pytest.raises(InvalidCdgError) as err:
        Cdg(StartGraph({"a": A, 3: A}, {}), [])
    (problem,) = err.value.diagnostics
    assert problem.index is None and "mix strings and integers" in problem.message
    events = (Event(1.0, NODE, "b", ADD, A), Event(2.0, NODE, 3, ADD, A))
    with pytest.raises(InvalidCdgError) as err:
        Cdg(StartGraph({"a": A}, {}), events)
    assert [p.index for p in err.value.diagnostics] == [1]
    assert [p.index for p in validate_stream(StartGraph({1: A}, {}), events)] == [0]
    assert universe(Cdg(StartGraph({1: A, 2: A}, {}), [Event(1.0, NODE, 0, ADD, A)])) == (0, 1, 2)


def copying_replay(start, events, dim=None):
    """``validate_stream`` as it was written before its replay went in place:
    every event goes through ``apply_event`` on copies of the last state."""
    problems = []
    ids = [(None, v) for v in start.nodes]
    ids += [(i, e.key) for i, e in enumerate(events) if e.item == NODE and e.kind == ADD]
    mixed = [(i, v) for i, v in ids if isinstance(v, str) != isinstance(ids[0][1], str)]
    if mixed:
        idx, v = mixed[0]
        problems.append((idx, f"node ids mix strings and integers: {v!r}"))
    for pair in start.edges:
        for end in pair:
            if end not in start.nodes:
                problems.append((None, f"edge {pair!r} endpoint {end!r} missing"))
    attrs = [(None, a) for a in [*start.nodes.values(), *start.edges.values()]]
    attrs += [(i, e.attr) for i, e in enumerate(events) if e.attr is not None]
    for idx, a in attrs:
        if dim is None:
            dim = len(a)
        elif len(a) != dim:
            problems.append((idx, f"attribute dimension {len(a)} != {dim}"))
    prev_t = 0.0
    state = Snapshot(time=0.0, nodes=dict(start.nodes), edges=dict(start.edges))
    for i, e in enumerate(events):
        if e.time <= prev_t:
            problems.append((i, f"timestamp {e.time} not after previous timestamp {prev_t}"))
            continue
        prev_t = e.time
        try:
            state = apply_event(state, e)
        except CdgError as err:
            problems.append((i, str(err)))
    return problems


# Few ids of both types, so adds collide, targets and endpoints go missing,
# deletes cascade and come back, and ids mix; time steps that mostly rise but
# may stand or fall; attributes of two dimensions.
IDS = st.sampled_from(["a", "b", "c", "d", 1, 2])
ATTRS = st.sampled_from([(0.5,), (1.0,), (0.5, 1.0)])
RAW_EVENTS = st.lists(
    st.tuples(
        st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.0, -1.0]),
        st.sampled_from([NODE, EDGE]),
        IDS,
        IDS,
        st.sampled_from([ADD, DELETE, ATTR_CHANGE]),
        ATTRS,
    ),
    max_size=12,
)
EVERY_RULE_BROKEN = (
    {"a": (1.0,), "b": (0.5,)},
    {("a", "b"): (1.0,), ("a", "c"): (0.5,)},
    [
        (1.0, NODE, "a", "a", ADD, (1.0,)),          # duplicate add
        (1.0, EDGE, "a", "d", ADD, (1.0,)),          # missing endpoint
        (0.0, NODE, "d", "d", ADD, (1.0,)),          # time that does not increase
        (1.0, NODE, "d", "d", ATTR_CHANGE, (1.0,)),  # missing target
        (1.0, NODE, "d", "d", ADD, (1.0,)),
        (1.0, EDGE, "a", "d", ADD, (1.0,)),          # applies: the failed add left nothing
        (1.0, EDGE, "a", "b", DELETE, (1.0,)),
        (1.0, EDGE, "a", "b", DELETE, (1.0,)),       # missing target
        (1.0, NODE, "c", "c", ADD, (0.5, 1.0)),      # dimension clash
        (1.0, NODE, "a", "a", DELETE, (1.0,)),       # cascades to (a, c) and (a, d)
        (1.0, EDGE, "a", "c", ATTR_CHANGE, (0.5,)),  # missing target
        (1.0, NODE, 2, 2, ADD, (1.0,)),              # mixed id types
    ],
    None,
)


def build_events(raw):
    """Events from raw draws, each time one step after the last; a self-loop
    or a mixed-type edge cannot be built at all (``Event`` raises), so those
    draws are dropped."""
    events, t = [], 0.0
    for step, item, u, v, kind, attr in raw:
        t = max(t + step, 0.0)
        try:
            key = u if item == NODE else (u, v)
            events.append(Event(t, item, key, kind, None if kind == DELETE else attr))
        except ValueError:
            pass
    return events


@settings(max_examples=200, deadline=None)
@given(
    nodes=st.dictionaries(IDS, ATTRS, max_size=4),
    edges=st.dictionaries(st.tuples(IDS, IDS), ATTRS, max_size=4),
    raw=RAW_EVENTS,
    dim=st.sampled_from([None, 1, 2]),
)
@example(*EVERY_RULE_BROKEN)
def test_in_place_validation_reports_what_a_copying_replay_reports(nodes, edges, raw, dim):
    try:
        start = StartGraph(nodes, edges)
    except ValueError:  # a self-loop or a mixed-type edge in the start graph
        start = StartGraph(nodes, {})
    events = build_events(raw)
    before = (dict(start.nodes), dict(start.edges))
    got = [(p.index, p.message) for p in validate_stream(start, events, dim)]
    # the replay goes into maps of its own, never into the start graph's
    assert (start.nodes, start.edges) == before
    assert got == copying_replay(start, events, dim)


def test_the_rule_breaking_example_breaks_every_rule():
    nodes, edges, raw, dim = EVERY_RULE_BROKEN
    messages = [m for _, m in copying_replay(StartGraph(nodes, edges), build_events(raw), dim)]
    for needle in ("mix strings and integers", "endpoint 'c' missing", "already present",
                   "endpoint 'd' missing for edge", "not after previous timestamp",
                   "not present", "attribute dimension"):
        assert any(needle in m for m in messages), needle

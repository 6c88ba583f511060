"""Shared builders for hand-sized graphs and streams."""

import pytest

from cdgwl import (
    ADD,
    ATTR_CHANGE,
    Cdg,
    DELETE,
    EDGE,
    Event,
    NODE,
    Snapshot,
    StartGraph,
    cgnn_forward,
)

A = (1.0,)
B = (2.0,)


def snap(nodes, edges=None, t=0.0):
    """Snapshot from {id: attr} and {(u, v): attr} maps."""
    return Snapshot(time=t, nodes=dict(nodes), edges=dict(edges or {}))


def path3():
    """a - b - c, uniform attributes."""
    return snap({"a": A, "b": A, "c": A}, {("a", "b"): A, ("b", "c"): A})


def star4():
    """Center x, leaves a b c."""
    return snap(
        {"x": A, "a": A, "b": A, "c": A},
        {("x", "a"): A, ("x", "b"): A, ("x", "c"): A},
    )


def k3():
    return snap({"a": A, "b": A, "c": A}, {("a", "b"): A, ("b", "c"): A, ("a", "c"): A})


def static_cdg(snapshot, dim=None):
    """The snapshot as a stream with no events."""
    return Cdg(StartGraph(dict(snapshot.nodes), dict(snapshot.edges)), dim=dim)


def sgnn_forward(snapshot, universe_, model):
    """Per-node embeddings of one snapshot (None for absent nodes).

    The snapshot's zero-event stream has one timestamp, so ``cgnn_forward``
    computes every row of it fresh, sharing none with another timestamp.
    """
    out = dict.fromkeys(universe_)
    out.update(cgnn_forward(static_cdg(snapshot, model.attr_dim), model)[0].hidden)
    return out


def delete_readd_cdg():
    """Node b vanishes at t=1 and returns with a fresh attribute at t=2."""
    return Cdg(
        StartGraph({"a": A, "b": A}, {("a", "b"): A}),
        (
            Event(1.0, NODE, "b", DELETE),
            Event(2.0, NODE, "b", ADD, B),
            Event(3.0, EDGE, ("a", "b"), ADD, A),
        ),
    )


def churn_cdg():
    """A stream exercising every event kind."""
    return Cdg(
        StartGraph({"a": A, "b": A, "c": B}, {("a", "b"): A}),
        (
            Event(1.0, EDGE, ("b", "c"), ADD, B),
            Event(2.0, NODE, "a", ATTR_CHANGE, B),
            Event(3.0, EDGE, ("a", "b"), DELETE),
            Event(4.0, NODE, "d", ADD, A),
            Event(5.0, EDGE, ("c", "d"), ADD, A),
            Event(6.5, EDGE, ("c", "d"), ATTR_CHANGE, B),
            Event(7.0, NODE, "b", DELETE),
        ),
    )


@pytest.fixture
def tmp_corpus(tmp_path):
    from cdgwl import write_pair_corpus

    write_pair_corpus(tmp_path / "corp", seed=11, n_pairs=4)
    return tmp_path / "corp"

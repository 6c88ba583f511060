"""Properties drawn by hypothesis: verdicts do not depend on node names."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cdgwl import (
    BIJECTION,
    EXISTENCE,
    GeneratorConfig,
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

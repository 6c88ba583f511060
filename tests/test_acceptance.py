"""Acceptance gate: the nine certification criteria at full scale.

Each test runs one criterion end to end at its stated size and tolerance
and prints a single PASS/FAIL line to the real terminal.  These are the
slow tests; everything else in the suite exists so that a failure here
has already been localized somewhere faster.
"""

from cdgwl import (
    BIJECTION,
    GeneratorConfig,
    IDENTITY,
    brute_force_isomorphic,
    cdg_from_jsonl,
    cdg_to_jsonl,
    compare_graphs,
    generate,
    graph_cut_equivalent,
    run_experiment,
    six_cycle,
    two_triangles,
)

SEED = 2026


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_tree_refinement_agreement(capsys):
    report = run_experiment("cut-cwl", seed=SEED)
    ok = (
        report.passed
        and report.results["pairs_checked"] >= 1000
        and report.results["mismatches"] == 0
        and report.wall_clock_seconds <= 300.0
    )
    announce(
        capsys, 1, ok,
        f"tree vs refinement partitions identical at every timestamp on "
        f"{report.results['pairs_checked']} pairs "
        f"({report.results['timestamps_checked']} timestamps, "
        f"{report.wall_clock_seconds:.1f}s)",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_2_depth_saturation(capsys):
    report = run_experiment("depth-bound", seed=SEED)
    ok = (
        report.passed
        and report.results["pairs_checked"] >= 1300
        and report.results["disconnected_pairs_checked"] >= 300
        and report.results["disconnected_timestamps"] > 0
        and report.results["violations"] == 0
    )
    announce(
        capsys, 2, ok,
        f"signatures equal at the decisive depth stay equal deeper on "
        f"{report.results['node_pairs_checked']} node pairs "
        f"({report.results['disconnected_pairs_checked']} disconnected pairs)",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_3_isomorphism_soundness(capsys):
    report = run_experiment("iso-soundness", seed=SEED)
    ok = (
        report.passed
        and report.results["pairs_checked"] == 200
        and report.results["pairs_passed"] == 200
    )
    announce(
        capsys, 3, ok,
        f"{report.results['pairs_passed']}/200 isomorphic pairs: witness "
        f"verified, brute force agrees, refinement equivalent",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_4_blind_spot_pair(capsys):
    tri, cyc = two_triangles(), six_cycle()
    cwl_eq = compare_graphs(tri, cyc, mode=BIJECTION).equivalent
    cut_eq = graph_cut_equivalent(tri, cyc).equivalent
    iso = brute_force_isomorphic(tri, cyc, IDENTITY).isomorphic
    ok = cwl_eq and cut_eq and not iso
    announce(
        capsys, 4, ok,
        f"two triangles vs six-cycle: refinement-equivalent={cwl_eq}, "
        f"tree-equivalent={cut_eq}, isomorphic={iso}",
    )
    assert ok


def test_criterion_5_component_matching(capsys):
    report = run_experiment("decomposition", seed=SEED)
    ok = (
        report.passed
        and report.results["equivalent_pairs_checked"] >= 40
        and report.results["violations"] == 0
    )
    announce(
        capsys, 5, ok,
        f"class-level component matching holds at every timestamp for all "
        f"{report.results['equivalent_pairs_checked']} equivalent pairs "
        f"(of {report.results['pairs_checked']} checked)",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_6_network_expressivity(capsys):
    report = run_experiment("expressivity", seed=SEED)
    ok = (
        report.passed
        and report.results["pairs_checked"] >= 120
        and report.results["symbolic_exact"] == report.results["pairs_checked"]
        and report.results["violations"] == 0
    )
    announce(
        capsys, 6, ok,
        f"symbolic states match refinement on "
        f"{report.results['symbolic_exact']}/{report.results['pairs_checked']} "
        f"pairs; numeric never refines over "
        f"{report.results['numeric_seeds_per_pair']} seeds",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_7_indicator_approximation(capsys):
    report = run_experiment("approximation", seed=SEED)
    ok = (
        report.passed
        and report.results["successes"] >= 4
        and report.wall_clock_seconds <= 120.0
    )
    losses = [f"{r['final_loss']:.2e}" for r in report.results["runs"]]
    announce(
        capsys, 7, ok,
        f"{report.results['successes']}/5 seeds reached mse <= 1e-2 "
        f"(losses {', '.join(losses)}; {report.wall_clock_seconds:.1f}s)",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_8_gradient_fidelity(capsys):
    report = run_experiment("gradcheck", seed=SEED)
    worst = report.results["max_relative_error"]
    modes = {c["mode"] for c in report.results["checks"]}
    ok = (
        report.passed
        and len(report.results["checks"]) == 6
        and modes == {"per-interval", "shared-dt"}
        and worst <= 1e-4
    )
    announce(
        capsys, 8, ok,
        f"finite differences agree with backprop on 3 probes x 2 temporal "
        f"modes (worst relative error {worst:.2e})",
    )
    assert ok, report.counterexamples[:3]


def test_criterion_9_determinism_and_round_trip(capsys):
    r1 = run_experiment("cut-cwl", seed=7, pairs=50, n_nodes=5)
    r2 = run_experiment("cut-cwl", seed=7, pairs=50, n_nodes=5)
    reports_identical = r1.to_json(include_wall_clock=False) == r2.to_json(
        include_wall_clock=False
    )
    round_trips = 0
    for i in range(1000):
        cfg = GeneratorConfig(
            n_nodes=3 + i % 4,
            n_events=i % 6,
            dim=1 + i % 2,
            attr_values=1 + i % 3,
        )
        text = cdg_to_jsonl(generate(cfg, seed=i))
        if cdg_to_jsonl(cdg_from_jsonl(text)) == text:
            round_trips += 1
    ok = reports_identical and round_trips == 1000
    announce(
        capsys, 9, ok,
        f"repeated runs byte-identical modulo wall clock={reports_identical}; "
        f"serialize-parse identity on {round_trips}/1000 streams",
    )
    assert ok

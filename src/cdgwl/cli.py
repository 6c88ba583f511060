"""Command-line surface: generation, comparison, verification, experiments.

Comparison commands exit 0 when the verdict is positive (equivalent,
isomorphic, matched) and 1 otherwise; verification and experiment commands
exit 0 exactly when no counterexample was found.  Usage problems and
invalid inputs exit 2.  ``CDGWL_CORPUS`` supplies the default corpus
directory wherever ``--corpus`` is accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cdg import replay, universe
from .cgnn import (
    PER_INTERVAL,
    SHARED_DT,
    CdynTarget,
    SgnnConfig,
    TemporalConfig,
    expressivity_check,
    gradient_check,
    model_params_json,
    train_to_target,
)
from .components import components, is_disconnected, match_components
from .errors import CdgError
from .experiments import (
    EXPERIMENT_NAMES,
    load_pair_corpus,
    load_stream_corpus,
    run_experiment,
    write_pair_corpus,
    write_stream_corpus,
)
from .generate import GeneratorConfig, generate
from .iso import IDENTITY, RENAMING, brute_force_isomorphic
from .serialize import cdg_to_jsonl, load_cdg
from .trees import (
    graph_cut_equivalent,
    tree_sigs_at_depth,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
)
from .wl import BIJECTION, EXISTENCE, ColorDictionary, compare_graphs, cwl


def _print(obj):
    print(json.dumps(obj, sort_keys=True, indent=2))


def _corpus_dir(args):
    if args.corpus:
        return args.corpus
    raise ValueError("no corpus directory: pass --corpus or set CDGWL_CORPUS")


def _cmd_gen(args):
    cfg = GeneratorConfig(
        n_nodes=args.n_nodes, n_events=args.events, dim=args.dim,
        attr_values=args.attr_values, ensure_disconnected=args.disconnected,
    )
    if args.pairs is not None or args.streams is not None:
        out_dir = _corpus_dir(args)
        if args.pairs is not None:
            manifest = write_pair_corpus(
                out_dir, args.seed, args.pairs,
                n_nodes=args.n_nodes, disconnected=args.disconnected,
                mixed=not args.no_mixed,
            )
        else:
            manifest = write_stream_corpus(out_dir, args.seed, args.streams, cfg)
        _print({"corpus": str(out_dir), "manifest": manifest})
        return 0
    text = cdg_to_jsonl(generate(cfg, args.seed))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cwl_run(args):
    g = load_cdg(args.file)
    trajs = cwl([g], depth=args.depth)[0]
    _print(
        {
            "depth": args.depth,
            "trajectories": {v: list(tr) for v, tr in sorted(trajs.items())},
        }
    )
    return 0


def _cmd_cwl_compare(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    mode = BIJECTION if args.mode == "bijection" else EXISTENCE
    verdict = compare_graphs(a, b, mode=mode)
    _print(
        {
            "equivalent": verdict.equivalent,
            "mode": args.mode,
            "first_divergence": verdict.first_divergence,
        }
    )
    return 0 if verdict.equivalent else 1


def _cmd_utree_build(args):
    g = load_cdg(args.file)
    snap = replay(g, args.t)
    sigs = tree_sigs_at_depth(snap, universe(g), ColorDictionary(), args.depth)
    if args.node not in sigs:
        raise ValueError(f"node {args.node!r} is not in the universe")
    _print(
        {
            "node": args.node,
            "t": args.t,
            "depth": args.depth,
            "signature_id": sigs[args.node],
            "all_signatures": dict(sorted(sigs.items())),
        }
    )
    return 0


def _cmd_utree_compare(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = graph_cut_equivalent(a, b, depth=args.depth)
    _print({"equivalent": verdict.equivalent, "bijection": verdict.bijection})
    return 0 if verdict.equivalent else 1


def _cmd_iso(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    mode = IDENTITY if args.mode == "identity" else RENAMING
    verdict = brute_force_isomorphic(a, b, mode)
    _print({"isomorphic": verdict.isomorphic, "mapping": verdict.mapping})
    return 0 if verdict.isomorphic else 1


def _cmd_decompose(args):
    g = load_cdg(args.file)
    snap = replay(g, args.t)
    part = components(snap)
    _print(
        {
            "t": args.t,
            "components": [list(c) for c in part.components],
            "disconnected": is_disconnected(snap),
        }
    )
    return 0


def _cmd_match_components(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = match_components(replay(a, args.t), replay(b, args.t))
    _print(
        {
            "t": args.t,
            "class_counts_match": verdict.class_counts_match,
            "component_counts_match": verdict.component_counts_match,
            "component_bijection": verdict.bijection,
        }
    )
    return 0 if verdict.class_counts_match else 1


def _cmd_cgnn_expressivity(args):
    pairs, _ = load_pair_corpus(_corpus_dir(args))
    report = expressivity_check(pairs, seeds=args.seeds, layers=args.layers)
    _print(
        {
            "instances": report.instances,
            "symbolic_exact": report.symbolic_exact,
            "numeric_violations": report.numeric_violations,
            "passed": report.ok,
        }
    )
    return 0 if report.ok else 1


def _cmd_cgnn_train(args):
    corpus, _ = load_stream_corpus(_corpus_dir(args))
    target = CdynTarget.from_json(Path(args.target).read_text())
    mode = PER_INTERVAL if args.mode == "per-interval" else SHARED_DT
    result = train_to_target(
        corpus, target,
        SgnnConfig(mode="numeric", layers=args.layers, hidden_dim=args.hidden_dim),
        TemporalConfig(mode=mode, state_dim=args.state_dim),
        steps=args.epochs, lr=args.lr, seed=args.seed, goal=args.goal,
    )
    if args.out:
        Path(args.out).write_text(model_params_json(result.model) + "\n")
    _print(
        {
            "initial_loss": result.initial_loss,
            "final_loss": result.final_loss,
            "steps_run": result.steps_run,
        }
    )
    return 0


def _cmd_cgnn_gradcheck(args):
    probe = load_cdg(args.probe)
    modes = [args.mode] if args.mode else [PER_INTERVAL, SHARED_DT]
    checks = []
    for mode in modes:
        err = gradient_check(
            probe,
            SgnnConfig(mode="numeric", layers=args.layers, hidden_dim=args.hidden_dim),
            TemporalConfig(mode=mode, state_dim=args.state_dim),
            n_samples=args.samples,
            seed=args.seed,
        )
        checks.append({"mode": mode, "max_relative_error": err})
    worst = max(c["max_relative_error"] for c in checks)
    _print({"checks": checks, "tolerance": args.tolerance, "passed": worst <= args.tolerance})
    return 0 if worst <= args.tolerance else 1


def _cmd_verify(args):
    pairs, _ = load_pair_corpus(_corpus_dir(args))
    if args.what == "cut-cwl":
        report = verify_cut_cwl_correspondence(pairs, depth=args.depth)
        out = {
            "pairs_checked": report.pairs_checked,
            "timestamps_checked": report.timestamps_checked,
            "mismatches": report.mismatches,
            "passed": report.ok,
        }
    else:
        report = verify_depth_bound(pairs, n_bound=args.n_bound)
        out = {
            "pairs_checked": report.pairs_checked,
            "node_pairs_checked": report.node_pairs_checked,
            "disconnected_timestamps": report.disconnected_timestamps,
            "violations": report.violations,
            "passed": report.ok,
        }
    _print(out)
    return 0 if report.ok else 1


def _cmd_run(args):
    overrides = {
        "pairs": args.pairs,
        "n_nodes": args.n_nodes,
        "disconnected_pairs": args.disconnected_pairs,
        "seeds": args.seeds,
        "layers": args.layers,
        "graphs": args.graphs,
        "steps": args.steps,
        "lr": args.lr,
        "goal": args.goal,
        "min_successes": args.min_successes,
        "probes": args.probes,
        "samples": args.samples,
        "tolerance": args.tolerance,
    }
    report = run_experiment(
        args.experiment, seed=args.seed, jobs=args.jobs, out=args.out, **overrides
    )
    summary = {
        "experiment": report.experiment,
        "passed": report.passed,
        "results": report.results,
        "counterexamples": len(report.counterexamples),
    }
    if args.out:
        summary["report"] = str(args.out)
    _print(summary)
    return 0 if report.passed else 1


def _add_corpus(p):
    p.add_argument(
        "--corpus",
        default=os.environ.get("CDGWL_CORPUS"),
        help="corpus directory (default: $CDGWL_CORPUS)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cdgwl",
        description="Dynamic-graph refinement, unfolding trees, and certification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a stream, a pair corpus, or a stream corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-nodes", type=int, default=5)
    p.add_argument("--events", type=int, default=8)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--attr-values", type=int, default=4)
    p.add_argument("--disconnected", action="store_true")
    p.add_argument("--pairs", type=int, help="write a pair corpus of this size")
    p.add_argument("--streams", type=int, help="write a stream corpus of this size")
    p.add_argument("--no-mixed", action="store_true", help="pair corpora: no isomorphic pairs")
    p.add_argument("--out", help="output file for a single stream")
    _add_corpus(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cwl", help="color refinement over a stream")
    cwl_sub = p.add_subparsers(dest="cwl_command", required=True)
    q = cwl_sub.add_parser("run", help="print color trajectories")
    q.add_argument("file")
    q.add_argument("--depth", type=int, help="rounds per timestamp (default: stabilize)")
    q.set_defaults(func=_cmd_cwl_run)
    q = cwl_sub.add_parser("compare", help="compare two streams")
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.add_argument("--mode", choices=["bijection", "existence"], default="bijection")
    q.set_defaults(func=_cmd_cwl_compare)

    p = sub.add_parser("utree", help="unfolding-tree signatures")
    ut_sub = p.add_subparsers(dest="utree_command", required=True)
    q = ut_sub.add_parser("build", help="signature ids at one timestamp")
    q.add_argument("file")
    q.add_argument("--node", required=True)
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--depth", type=int, required=True)
    q.set_defaults(func=_cmd_utree_build)
    q = ut_sub.add_parser("compare", help="tree-trajectory comparison of two streams")
    q.add_argument("file_a")
    q.add_argument("file_b")
    q.add_argument("--depth", type=int, help="tree depth (default: decisive bound)")
    q.set_defaults(func=_cmd_utree_compare)

    p = sub.add_parser("iso", help="brute-force isomorphism of two streams")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--mode", choices=["identity", "renaming"], default="identity")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("decompose", help="connected components at a timestamp")
    p.add_argument("file")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("match-components", help="component matching at a timestamp")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_match_components)

    p = sub.add_parser("cgnn", help="network expressivity, training, gradients")
    cg_sub = p.add_subparsers(dest="cgnn_command", required=True)
    q = cg_sub.add_parser("expressivity", help="certify partitions over a pair corpus")
    _add_corpus(q)
    q.add_argument("--seeds", type=int, default=5)
    q.add_argument("--layers", type=int, default=3)
    q.set_defaults(func=_cmd_cgnn_expressivity)
    q = cg_sub.add_parser("train", help="fit a target over a stream corpus")
    _add_corpus(q)
    q.add_argument("--target", required=True, help="target table JSON file")
    q.add_argument("--epochs", type=int, default=2000)
    q.add_argument("--lr", type=float, default=0.3)
    q.add_argument("--goal", type=float, help="stop early at this MSE")
    q.add_argument("--mode", choices=["per-interval", "shared-dt"], default="per-interval")
    q.add_argument("--layers", type=int, default=2)
    q.add_argument("--hidden-dim", type=int, default=8)
    q.add_argument("--state-dim", type=int, default=8)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", help="write trained parameters as JSON")
    q.set_defaults(func=_cmd_cgnn_train)
    q = cg_sub.add_parser("gradcheck", help="finite-difference gradient check")
    q.add_argument("--probe", required=True, help="stream file")
    q.add_argument("--mode", choices=[PER_INTERVAL, SHARED_DT])
    q.add_argument("--layers", type=int, default=2)
    q.add_argument("--hidden-dim", type=int, default=4)
    q.add_argument("--state-dim", type=int, default=4)
    q.add_argument("--samples", type=int, default=40)
    q.add_argument("--tolerance", type=float, default=1e-4)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=_cmd_cgnn_gradcheck)

    p = sub.add_parser("verify", help="run a certification over a stored corpus")
    p.add_argument("what", choices=["cut-cwl", "depth-bound"])
    _add_corpus(p)
    p.add_argument("--depth", type=int, help="cut-cwl: fixed depth instead of stabilization")
    p.add_argument("--n-bound", type=int, default=6, help="depth-bound: node bound")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="run a named experiment end to end")
    p.add_argument("experiment", choices=list(EXPERIMENT_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the full JSON report here")
    p.add_argument("--pairs", type=int)
    p.add_argument("--n-nodes", type=int)
    p.add_argument("--disconnected-pairs", type=int)
    p.add_argument("--seeds", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--graphs", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--goal", type=float)
    p.add_argument("--min-successes", type=int)
    p.add_argument("--probes", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CdgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a negative verdict, never a crash
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

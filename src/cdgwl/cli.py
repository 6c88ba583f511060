"""Command-line surface: generation, comparison, verification, experiments.

Each ``_cmd_*`` handler returns ``(payload, verdict)``; only ``main`` prints
the payload as JSON and maps the verdict to an exit code: 0 for a positive
verdict (equivalent, isomorphic, matched, no counterexample) or a command
without one, 1 for a negative verdict and nothing else, 2 for usage errors,
invalid inputs and unexpected errors.  ``CDGWL_CORPUS`` supplies the default
corpus directory wherever ``--corpus`` is accepted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
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
from .errors import CdgError, MalformedTargetError
from .experiments import (
    DEFAULT_SIZES,
    EXPERIMENT_NAMES,
    load_pair_corpus,
    load_stream_corpus,
    run_experiment,
    write_pair_corpus,
    write_stream_corpus,
)
from .generate import GeneratorConfig, generate
from .iso import IDENTITY, RENAMING, brute_force_isomorphic
from .serialize import _reading, cdg_to_jsonl, load_cdg
from .trees import (
    graph_cut_equivalent,
    tree_sigs_at_depth,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
)
from .wl import BIJECTION, EXISTENCE, ColorDictionary, compare_graphs, cwl

# ``cdgwl run`` takes one flag per size parameter of any experiment, typed by
# its default; ``run_experiment`` rejects a parameter the experiment lacks.
SIZE_TYPES = {key: type(v) for sizes in DEFAULT_SIZES.values() for key, v in sizes.items()}


def _corpus_dir(args):
    if args.corpus:
        return args.corpus
    raise ValueError("no corpus directory: pass --corpus or set CDGWL_CORPUS")


def _checked(report):
    """A certification report as a payload, with its verdict."""
    return {**asdict(report), "passed": report.ok}, report.ok


# ``gen``'s stream sizes by ``GeneratorConfig`` field; unset, they keep its defaults.
_GEN_SIZE_FLAGS = {"n_events": "--events", "dim": "--dim", "attr_values": "--attr-values"}


def _cmd_gen(args):
    sizes = {k: getattr(args, k) for k in _GEN_SIZE_FLAGS if getattr(args, k) is not None}
    if args.pairs is not None and sizes:
        flags = ", ".join(_GEN_SIZE_FLAGS[k] for k in sizes)
        raise ValueError(f"--pairs takes no {flags}: a pair corpus cycles its sizes per index")
    if args.no_mixed and args.pairs is None:
        raise ValueError("--no-mixed applies only to --pairs")
    cfg = GeneratorConfig(n_nodes=args.n_nodes, ensure_disconnected=args.disconnected, **sizes)
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
        return {"corpus": str(out_dir), "manifest": manifest}, True
    text = cdg_to_jsonl(generate(cfg, args.seed))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return None, True


def _cmd_cwl_run(args):
    trajs = cwl([load_cdg(args.file)], depth=args.depth)[0]
    trajectories = {v: list(tr) for v, tr in sorted(trajs.items())}
    return {"depth": args.depth, "trajectories": trajectories}, True


def _cmd_cwl_compare(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = compare_graphs(a, b, mode=args.mode)
    payload = {
        "equivalent": verdict.equivalent,
        "mode": args.mode,
        "first_divergence": verdict.first_divergence,
    }
    return payload, verdict.equivalent


def _cmd_utree_build(args):
    g = load_cdg(args.file)
    sigs = tree_sigs_at_depth(replay(g, args.t), universe(g), ColorDictionary(), args.depth)
    # --node is text; a universe never mixes id kinds, so the text names one node
    node = {str(v): v for v in sigs}.get(args.node)
    if node is None:
        raise ValueError(f"node {args.node!r} is not in the universe")
    return {
        "node": node,
        "t": args.t,
        "depth": args.depth,
        "signature_id": sigs[node],
        "all_signatures": dict(sorted(sigs.items())),
    }, True


def _cmd_utree_compare(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = graph_cut_equivalent(a, b, depth=args.depth)
    return asdict(verdict), verdict.equivalent


def _cmd_iso(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = brute_force_isomorphic(a, b, args.mode)
    return asdict(verdict), verdict.isomorphic


def _cmd_decompose(args):
    snap = replay(load_cdg(args.file), args.t)
    return {
        "t": args.t,
        "components": [list(c) for c in components(snap).components],
        "disconnected": is_disconnected(snap),
    }, True


def _cmd_match_components(args):
    a, b = load_cdg(args.file_a), load_cdg(args.file_b)
    verdict = match_components(replay(a, args.t), replay(b, args.t))
    payload = {
        "t": args.t,
        "class_counts_match": verdict.class_counts_match,
        "component_counts_match": verdict.component_counts_match,
        "component_bijection": verdict.bijection,
    }
    return payload, verdict.class_counts_match


def _cmd_cgnn_expressivity(args):
    pairs, _ = load_pair_corpus(_corpus_dir(args))
    return _checked(expressivity_check(pairs, seeds=args.seeds, layers=args.layers))


def _cmd_cgnn_train(args):
    corpus, _ = load_stream_corpus(_corpus_dir(args))
    with _reading(args.target, lambda line, problem: MalformedTargetError(None, problem)) as text:
        target = CdynTarget.from_json(text)
    result = train_to_target(
        corpus, target,
        SgnnConfig(layers=args.layers, hidden_dim=args.hidden_dim),
        TemporalConfig(mode=args.mode, state_dim=args.state_dim),
        steps=args.epochs, lr=args.lr, seed=args.seed, goal=args.goal,
    )
    if args.out:
        Path(args.out).write_text(model_params_json(result.model) + "\n")
    return {k: getattr(result, k) for k in ("initial_loss", "final_loss", "steps_run")}, True


def _cmd_cgnn_gradcheck(args):
    if not args.tolerance >= 0:  # a negative tolerance is a usage error, not a failed check
        raise ValueError(f"tolerance must be at least 0, got {args.tolerance}")
    probe = load_cdg(args.probe)
    sgnn = SgnnConfig(layers=args.layers, hidden_dim=args.hidden_dim)
    checks = []
    for mode in [args.mode] if args.mode else [PER_INTERVAL, SHARED_DT]:
        temporal = TemporalConfig(mode=mode, state_dim=args.state_dim)
        err = gradient_check(probe, sgnn, temporal, n_samples=args.samples, seed=args.seed)
        checks.append({"mode": mode, "max_relative_error": err})
    passed = all(c["max_relative_error"] <= args.tolerance for c in checks)
    return {"checks": checks, "tolerance": args.tolerance, "passed": passed}, passed


def _cmd_verify(args):
    pairs, _ = load_pair_corpus(_corpus_dir(args))
    if args.what == "cut-cwl":
        return _checked(verify_cut_cwl_correspondence(pairs, depth=args.depth))
    n_bound = args.n_bound
    if n_bound is None:  # the largest universe in the corpus
        n_bound = max([1, *(len(universe(g)) for pair in pairs for g in pair)])
    return _checked(verify_depth_bound(pairs, n_bound=n_bound))


def _cmd_run(args):
    sizes = {key: getattr(args, key) for key in SIZE_TYPES}
    report = run_experiment(args.experiment, seed=args.seed, jobs=args.jobs, out=args.out, **sizes)
    summary = {
        "experiment": report.experiment,
        "passed": report.passed,
        "results": report.results,
        "counterexamples": len(report.counterexamples),
    }
    if args.out:
        summary["report"] = str(args.out)
    return summary, report.passed


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
    p.add_argument("--events", dest="n_events", type=int, help="default 8; not with --pairs")
    p.add_argument("--dim", type=int, help="default 1; not with --pairs")
    p.add_argument("--attr-values", type=int, help="default 4; not with --pairs")
    p.add_argument("--disconnected", action="store_true")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--pairs", type=int, help="write a pair corpus of this size")
    what.add_argument("--streams", type=int, help="write a stream corpus of this size")
    what.add_argument("--out", help="output file for a single stream")
    p.add_argument("--no-mixed", action="store_true", help="pair corpora: no isomorphic pairs")
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
    q.add_argument("--mode", choices=[BIJECTION, EXISTENCE], default=BIJECTION)
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
    p.add_argument("--mode", choices=[IDENTITY, RENAMING], default=IDENTITY)
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
    q.add_argument("--mode", choices=[PER_INTERVAL, SHARED_DT], default=PER_INTERVAL)
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
    p.add_argument(
        "--n-bound", type=int, help="depth-bound: node bound (default: the largest universe)"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="run a named experiment end to end")
    p.add_argument("experiment", choices=list(EXPERIMENT_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the full JSON report here")
    for key, kind in SIZE_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), type=kind)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload, verdict = args.func(args)
        if payload is not None:
            print(json.dumps(payload, sort_keys=True, indent=2))
    except (CdgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 means a negative verdict, never a crash
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())

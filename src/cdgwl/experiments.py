"""Certification experiments over seeded corpora, with JSON reports.

Every experiment is one entry of ``_EXPERIMENTS``: its default sizes, the
worker args of its instances, a top-level worker that checks one instance
and returns ``(row, counterexamples)``, and the reduction of all rows to
the report's results (by default the pair count plus every row count
summed).  Workers regenerate their instance from (root seed, index), so
workers in a process pool rebuild exactly the instance they check and
reports come out byte-identical for identical inputs (the wall-clock field
aside).  An ``approximation`` instance is a contiguous run of train seeds,
trained as one stack, one run per worker.  Counterexamples embed full
stream serializations for replay.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cdg import snapshots
from .cgnn import (
    PER_INTERVAL,
    SHARED_DT,
    CdynTarget,
    SgnnConfig,
    TemporalConfig,
    _train_stack,
    expressivity_check,
    gradient_check,
)
from .components import match_components
from .errors import MalformedManifestError
from .generate import (
    GeneratorConfig,
    generate,
    generate_isomorphic_pair,
    six_cycle,
    two_triangles,
)
from .iso import IDENTITY, brute_force_isomorphic, check_isomorphism_witness
from .serialize import cdg_to_jsonl, load_cdg, save_cdg
from .trees import (
    cut_trajectories,
    graph_cut_equivalent,
    verify_cut_cwl_correspondence,
    verify_depth_bound,
)
from .wl import compare_graphs


def sub_seed(seed, *key):
    """Independent child seed for one instance of one stream of work."""
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))


def pair_config(idx, n_nodes=6, disconnected=False):
    """Deterministic per-index generator settings cycling sizes and dims."""
    return GeneratorConfig(
        n_nodes=n_nodes,
        n_events=1 + idx % 4,
        dim=1 + (idx // 4) % 2,
        attr_values=2 + (idx // 8) % 2,
        ensure_disconnected=disconnected,
    )


def make_pair(seed, idx, n_nodes=6, disconnected=False, mixed=True):
    """Instance ``idx`` of the standard pair corpus for ``seed``.

    Mixed corpora make every fifth pair isomorphic so the equivalent side
    of each certified biconditional is exercised, not just the divergent
    side.
    """
    cfg = pair_config(idx, n_nodes, disconnected)
    if mixed and idx % 5 == 0:
        a, b, _ = generate_isomorphic_pair(cfg, sub_seed(seed, idx, 0))
        return a, b
    a = generate(cfg, sub_seed(seed, idx, 0))
    b = generate(cfg, sub_seed(seed, idx, 1))
    return a, b


# ---------------------------------------------------------------------------
# Report


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    results: dict
    counterexamples: list
    passed: bool
    wall_clock_seconds: float

    def to_json(self, include_wall_clock=True):
        obj = {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "results": self.results,
            "counterexamples": self.counterexamples,
            "passed": self.passed,
        }
        if include_wall_clock:
            obj["wall_clock_seconds"] = self.wall_clock_seconds
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _pair_json(a, b):
    """A counterexample's inputs, as their JSON-lines text."""
    return {"cdg_a": cdg_to_jsonl(a), "cdg_b": cdg_to_jsonl(b)}


def _sorted_counterexamples(ces):
    return sorted(ces, key=lambda c: json.dumps(c, sort_keys=True))


def _parallel_map(fn, args_list, jobs):
    if jobs > 1 and len(args_list) > 1:
        chunk = max(1, len(args_list) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, args_list, chunksize=chunk))
    return [fn(a) for a in args_list]


# ---------------------------------------------------------------------------
# Per-instance workers (top level so a process pool can pickle them)


def _w_cut_cwl(args):
    seed, idx, n_nodes = args
    a, b = make_pair(seed, idx, n_nodes)
    rep = verify_cut_cwl_correspondence([(a, b)])
    ces = [
        {"pair_index": idx, "timestamp_index": m["timestamp_index"], **_pair_json(a, b)}
        for m in rep.mismatches
    ]
    return {"timestamps_checked": rep.timestamps_checked, "mismatches": len(ces)}, ces


def _w_depth_bound(args):
    seed, idx, n_nodes, disconnected = args
    a, b = make_pair(seed, idx, n_nodes, disconnected=disconnected)
    rep = verify_depth_bound([(a, b)], n_bound=n_nodes)
    ces = [
        {"pair_index": idx, "disconnected_corpus": disconnected, **_pair_json(a, b),
         "violation": {k: v for k, v in v_.items() if k != "pair"}}
        for v_ in rep.violations
    ]
    return {
        "disconnected_pairs_checked": int(disconnected),
        "node_pairs_checked": rep.node_pairs_checked,
        "disconnected_timestamps": rep.disconnected_timestamps,
        "violations": len(ces),
    }, ces


def _w_iso(args):
    seed, idx, n_nodes = args
    cfg = pair_config(idx, n_nodes)
    g1, g2, mapping = generate_isomorphic_pair(cfg, sub_seed(seed, idx, 0))
    witness_ok = check_isomorphism_witness(g1, g2, mapping, IDENTITY)
    oracle = brute_force_isomorphic(g1, g2, IDENTITY)
    cwl_ok = compare_graphs(g1, g2).equivalent
    if witness_ok and oracle.isomorphic and cwl_ok:
        return {"pairs_passed": 1}, []
    return {"pairs_passed": 0}, [{
        "pair_index": idx,
        "witness_verified": witness_ok,
        "brute_force_isomorphic": oracle.isomorphic,
        "cwl_equivalent": cwl_ok,
        **_pair_json(g1, g2),
    }]


def _w_decomposition(args):
    seed, idx, n_nodes = args
    a, b = make_pair(seed, idx, n_nodes)
    if not compare_graphs(a, b).equivalent:
        return {"equivalent_pairs_checked": 0, "violations": 0}, []
    ces = [
        {"pair_index": idx, "timestamp_index": i, **_pair_json(a, b)}
        for i, (s1, s2) in enumerate(zip(snapshots(a), snapshots(b)))
        if not match_components(s1, s2).class_counts_match
    ]
    return {"equivalent_pairs_checked": 1, "violations": len(ces)}, ces


def _w_expressivity(args):
    seed, idx, n_nodes, n_seeds, layers = args
    pair = make_pair(seed, idx, n_nodes)
    base = (int(seed) * 7919 + idx * 13) % (2**31)
    rep = expressivity_check([pair], seeds=n_seeds, layers=layers, base_seed=base)
    ces = [
        {"pair_index": idx, "kind": "symbolic-partition-mismatch", **_pair_json(*pair)}
        for _ in rep.symbolic_mismatches
    ]
    ces += [
        {"pair_index": idx, "kind": "numeric-refinement", **_pair_json(*pair),
         **{k: v[k] for k in ("seed", "prefix_length", "nodes")}}
        for v in rep.numeric_violations
    ]
    return {"symbolic_exact": rep.symbolic_exact, "violations": len(ces)}, ces


APPROX_CONFIG = GeneratorConfig(n_nodes=4, n_events=3, dim=1, attr_values=2)


def approximation_corpus(seed, graphs):
    return [generate(APPROX_CONFIG, sub_seed(seed, 0, i)) for i in range(graphs)]


def _approx_anchor(prefixes):
    """The first candidate anchor whose prefix-indicator the model can realize.

    ``prefixes`` are the corpus's ``cut_trajectories``.  Live terms share a
    state bitwise by class: a (re)appearing node's is its raw embedding,
    ``("fresh", sig)`` in any graph at any timestamp; an older node's is a
    cell chain, ``("chain", run start, sig chain)``.  A realizable indicator
    holds each class's ``(timestamp index, prefix)`` keys wholly or not at all.
    """
    classes = {}
    for trajs in prefixes:
        for traj in trajs.values():
            sigs = traj.sigs
            for i, sig in enumerate(sigs):
                if sig != 0:
                    start = i if i == 0 or sigs[i - 1] == 0 else start
                    ident = ("fresh", sig) if start == i else ("chain", start, sigs[start : i + 1])
                    classes.setdefault(ident, set()).add((i, sigs[: i + 1]))
    candidates = [
        (gi, v)
        for gi, trajs in enumerate(prefixes)
        for v, traj in sorted(trajs.items())
        if 0 not in traj.sigs
    ]
    for gi, v in candidates:
        sigs = prefixes[gi][v].sigs
        keys = {(i, sigs[: i + 1]) for i in range(len(sigs))}
        if all(members <= keys or members.isdisjoint(keys) for members in classes.values()):
            return gi, v
    return candidates[0] if candidates else (0, sorted(prefixes[0])[0])


def _w_approximation(args):
    """Train a contiguous run of seeds as one stack on the corpus, built once for them."""
    seed, train_seeds, graphs, steps, lr, goal = args
    corpus = approximation_corpus(seed, graphs)
    prefixes = cut_trajectories(corpus)
    anchor_graph, anchor_node = _approx_anchor(prefixes)
    target = CdynTarget._indicator(prefixes[anchor_graph][anchor_node].sigs)
    sgnn = SgnnConfig(layers=2, hidden_dim=8)
    temporal = TemporalConfig(mode=PER_INTERVAL, state_dim=8)
    results = _train_stack(
        corpus, target, sgnn, temporal, steps=steps, lr=lr, seeds=train_seeds, goal=goal,
        prefixes=prefixes,
    )
    runs = [
        {"train_seed": s, **{k: getattr(r, k) for k in ("final_loss", "initial_loss", "steps_run")}}
        for s, r in zip(train_seeds, results)
    ]
    ces = [{"kind": "seed-missed-goal", **run} for run in runs if not run["final_loss"] <= goal]
    return {"anchor": (anchor_graph, anchor_node), "runs": runs}, ces


GRADCHECK_CONFIG = GeneratorConfig(n_nodes=3, n_events=2, dim=1, attr_values=2)


def _w_gradcheck(args):
    seed, probe_idx, mode, samples, tolerance = args
    probe = generate(GRADCHECK_CONFIG, sub_seed(seed, 1, probe_idx))
    sgnn = SgnnConfig(layers=2, hidden_dim=4, mlp_hidden=8)
    temporal = TemporalConfig(mode=mode, state_dim=4, mlp_hidden=8)
    err = gradient_check(probe, sgnn, temporal, n_samples=samples, seed=probe_idx)
    check = {"probe": probe_idx, "mode": mode, "max_relative_error": err}
    return check, [] if err <= tolerance else [dict(check)]


# ---------------------------------------------------------------------------
# Reductions and the table of experiments


def _summed(seed, sizes, rows, ces):
    """The pair count plus every row count summed over the pairs."""
    results = {"pairs_checked": len(rows)}
    for row in rows:
        for key, count in row.items():
            results[key] = results.get(key, 0) + count
    return results, ces


# Refinement and trees cannot tell two triangles from a six-cycle; the oracle
# and component-level matching can.
BLIND_SPOT_EXPECTED = {
    "cwl_equivalent": True, "cut_equivalent": True, "isomorphic": False,
    "class_counts_match": True, "component_counts_match": False,
}


def _decomposition_results(seed, sizes, rows, ces):
    """Summed rows plus the fixed two-triangles vs six-cycle demonstration."""
    tri, cyc = two_triangles(), six_cycle()
    verdict = match_components(snapshots(tri)[0], snapshots(cyc)[0])
    demo = {
        "cwl_equivalent": compare_graphs(tri, cyc).equivalent,
        "cut_equivalent": graph_cut_equivalent(tri, cyc).equivalent,
        "isomorphic": brute_force_isomorphic(tri, cyc, IDENTITY).isomorphic,
        "class_counts_match": verdict.class_counts_match,
        "component_counts_match": verdict.component_counts_match,
    }
    results, ces = _summed(seed, sizes, rows, ces)
    if demo != BLIND_SPOT_EXPECTED:
        ces = ces + [{"kind": "fixed-demo", "observed": demo, "expected": BLIND_SPOT_EXPECTED}]
    return {"fixed_demo": demo, **results}, ces


def _expressivity_results(seed, sizes, rows, ces):
    results, ces = _summed(seed, sizes, rows, ces)
    return {**results, "numeric_seeds_per_pair": sizes["seeds"]}, ces


def _approximation_results(seed, sizes, rows, ces):
    """The runs; missed goals count only when fewer than ``min_successes`` met it."""
    anchor_graph, anchor_node = rows[0]["anchor"]
    runs = [run for row in rows for run in row["runs"]]
    successes = sum(run["final_loss"] <= sizes["goal"] for run in runs)
    results = {
        "anchor_graph": anchor_graph, "anchor_node": anchor_node, "runs": runs,
        "goal": sizes["goal"], "successes": successes, "required": sizes["min_successes"],
    }
    return results, [] if successes >= sizes["min_successes"] else ces


def _gradcheck_results(seed, sizes, rows, ces):
    worst = float(np.max([check["max_relative_error"] for check in rows]))
    return {"checks": rows, "tolerance": sizes["tolerance"], "max_relative_error": worst}, ces


def _indexed(count, *keys):
    """Instances ``(seed, i, *sizes[keys])`` for every ``i`` below ``sizes[count]``."""
    return lambda seed, sizes, jobs: [
        (seed, i, *(sizes[k] for k in keys)) for i in range(sizes[count])
    ]


_PAIRS = _indexed("pairs", "n_nodes")


def _depth_bound_pairs(seed, sizes, jobs):
    counts = ((False, sizes["pairs"]), (True, sizes["disconnected_pairs"]))
    return [(seed, idx, sizes["n_nodes"], disc) for disc, n in counts for idx in range(n)]


def _gradcheck_probes(seed, sizes, jobs):
    return [
        (seed, p, mode, sizes["samples"], sizes["tolerance"])
        for p in range(sizes["probes"]) for mode in (PER_INTERVAL, SHARED_DT)
    ]


def _approximation_stacks(seed, sizes, jobs):
    """The train seeds in ``min(jobs, seeds)`` contiguous runs, one stack each."""
    parts = np.array_split(np.arange(sizes["seeds"]), min(jobs, sizes["seeds"]))
    return [
        (seed, tuple(map(int, part)), *(sizes[k] for k in ("graphs", "steps", "lr", "goal")))
        for part in parts
    ]


@dataclass(frozen=True)
class _Experiment:
    """Default sizes, ``instances(seed, sizes, jobs)`` -> worker args, worker, reduction."""

    sizes: dict
    instances: Callable
    worker: Callable
    results: Callable = _summed


_EXPERIMENTS = {
    "cut-cwl": _Experiment({"pairs": 1000, "n_nodes": 6}, _PAIRS, _w_cut_cwl),
    "depth-bound": _Experiment(
        {"pairs": 1000, "disconnected_pairs": 300, "n_nodes": 6},
        _depth_bound_pairs, _w_depth_bound,
    ),
    "iso-soundness": _Experiment({"pairs": 200, "n_nodes": 6}, _PAIRS, _w_iso),
    "decomposition": _Experiment(
        {"pairs": 200, "n_nodes": 6}, _PAIRS, _w_decomposition, _decomposition_results
    ),
    "expressivity": _Experiment(
        {"pairs": 120, "n_nodes": 6, "seeds": 5, "layers": 3},
        _indexed("pairs", "n_nodes", "seeds", "layers"),
        _w_expressivity, _expressivity_results,
    ),
    "approximation": _Experiment(
        {"graphs": 6, "seeds": 5, "steps": 5000, "lr": 0.3, "goal": 1e-2, "min_successes": 4},
        _approximation_stacks, _w_approximation, _approximation_results,
    ),
    "gradcheck": _Experiment(
        {"probes": 3, "samples": 40, "tolerance": 1e-4}, _gradcheck_probes,
        _w_gradcheck, _gradcheck_results,
    ),
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)
DEFAULT_SIZES = {name: exp.sizes for name, exp in _EXPERIMENTS.items()}


def run_experiment(name, seed=0, jobs=1, out=None, **overrides):
    """Run one named certification and return its report.

    Size overrides with value None fall back to the experiment's defaults;
    an integer size below 1 (below 0 for ``disconnected_pairs``, ``steps``
    and ``min_successes``) raises ``ValueError``, so no certification passes
    on an empty corpus; so do a negative ``tolerance``, a ``goal`` that is
    not positive, an ``lr`` that is not positive and finite, and ``jobs``
    below 1.  ``out`` additionally writes the JSON report to that path.
    """
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    experiment = _EXPERIMENTS[name]
    sizes = dict(experiment.sizes)
    for k, v in overrides.items():
        if v is None:
            continue
        if k not in sizes:
            raise ValueError(f"experiment {name!r} takes no parameter {k!r}")
        if isinstance(sizes[k], int):
            least = 0 if k in ("disconnected_pairs", "steps", "min_successes") else 1
            bad, rule = v < least, f"at least {least}"
        elif k == "tolerance":
            bad, rule = not v >= 0, "at least 0"
        elif k == "lr":
            bad, rule = not 0 < v < math.inf, "positive and finite"
        else:
            bad, rule = not v > 0, "positive"
        if bad:
            raise ValueError(f"experiment {name!r}: {k} must be {rule}, got {v}")
        sizes[k] = v
    t0 = time.perf_counter()
    outs = _parallel_map(experiment.worker, experiment.instances(seed, sizes, jobs), jobs)
    rows = [row for row, _ in outs]
    results, ces = experiment.results(seed, sizes, rows, [c for _, found in outs for c in found])
    report = Report(
        experiment=name,
        seed=int(seed),
        config=sizes,
        results=results,
        counterexamples=_sorted_counterexamples(ces),
        passed=not ces,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    if out is not None:
        Path(out).write_text(report.to_json())
    return report


# ---------------------------------------------------------------------------
# Corpus directories


def write_pair_corpus(dirpath, seed, n_pairs, n_nodes=6, disconnected=False, mixed=True):
    """Materialize the standard pair corpus as files plus a manifest."""
    if n_pairs < 1:
        raise ValueError(f"a pair corpus needs at least 1 pair, got {n_pairs}")
    # Draw every pair before the directory exists: a config the generator
    # rejects leaves nothing behind.
    pairs = [
        make_pair(seed, idx, n_nodes, disconnected=disconnected, mixed=mixed)
        for idx in range(n_pairs)
    ]
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (a, b) in enumerate(pairs):
        name_a, name_b = f"pair{idx:04d}_a.jsonl", f"pair{idx:04d}_b.jsonl"
        save_cdg(dirpath / name_a, a)
        save_cdg(dirpath / name_b, b)
        entries.append({"index": idx, "a": name_a, "b": name_b})
    manifest = {
        "kind": "pairs",
        "seed": int(seed),
        "n_pairs": n_pairs,
        "n_nodes": n_nodes,
        "disconnected": disconnected,
        "mixed": mixed,
        "pairs": entries,
    }
    (dirpath / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def write_stream_corpus(dirpath, seed, n_streams, config=None):
    """Materialize mutually comparable single streams plus a manifest."""
    if n_streams < 1:
        raise ValueError(f"a stream corpus needs at least 1 stream, got {n_streams}")
    config = config or APPROX_CONFIG
    streams = [generate(config, sub_seed(seed, 0, idx)) for idx in range(n_streams)]
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, g in enumerate(streams):
        name = f"stream{idx:04d}.jsonl"
        save_cdg(dirpath / name, g)
        entries.append({"index": idx, "file": name})
    manifest = {
        "kind": "streams",
        "seed": int(seed),
        "n_streams": n_streams,
        "streams": entries,
    }
    (dirpath / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def _checked_manifest(dirpath, kind, files):
    """The manifest, once every ``kind`` entry names each of ``files`` as a string."""
    path = Path(dirpath) / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedManifestError(path, None, f"invalid JSON ({exc})") from None
    entries = manifest.get(kind) if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise MalformedManifestError(path, kind, f"expected a list of {kind}, got {entries!r}")
    for k, entry in enumerate(entries):
        for name in files:
            value = entry.get(name) if isinstance(entry, dict) else None
            if not isinstance(value, str):
                field = f"{kind}[{k}].{name}"
                raise MalformedManifestError(path, field, f"expected a file name, got {value!r}")
    return manifest


def load_pair_corpus(dirpath):
    dirpath = Path(dirpath)
    manifest = _checked_manifest(dirpath, "pairs", ("a", "b"))
    pairs = [
        (load_cdg(dirpath / e["a"]), load_cdg(dirpath / e["b"]))
        for e in manifest["pairs"]
    ]
    return pairs, manifest


def load_stream_corpus(dirpath):
    dirpath = Path(dirpath)
    manifest = _checked_manifest(dirpath, "streams", ("file",))
    streams = [load_cdg(dirpath / e["file"]) for e in manifest["streams"]]
    return streams, manifest

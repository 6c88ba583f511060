"""Certification experiments over seeded corpora, with JSON reports.

Every experiment regenerates its instances from (root seed, index) pairs,
so workers in a process pool rebuild exactly the instance they check and
reports come out byte-identical for identical inputs (the wall-clock field
aside).  Counterexamples embed full stream serializations for replay.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cdg import snapshots, universe
from .cgnn import (
    PER_INTERVAL,
    SHARED_DT,
    CdynTarget,
    SgnnConfig,
    TemporalConfig,
    expressivity_check,
    gradient_check,
    train_to_target,
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
from .wl import BIJECTION, graph_cwl_equivalent

EXPERIMENT_NAMES = (
    "cut-cwl",
    "depth-bound",
    "iso-soundness",
    "decomposition",
    "expressivity",
    "approximation",
    "gradcheck",
)

DEFAULT_SIZES = {
    "cut-cwl": {"pairs": 1000, "n_nodes": 6},
    "depth-bound": {"pairs": 1000, "disconnected_pairs": 300, "n_nodes": 6},
    "iso-soundness": {"pairs": 200, "n_nodes": 6},
    "decomposition": {"pairs": 200, "n_nodes": 6},
    "expressivity": {"pairs": 120, "n_nodes": 6, "seeds": 5, "layers": 3},
    "approximation": {
        "graphs": 6,
        "seeds": 5,
        "steps": 5000,
        "lr": 0.3,
        "goal": 1e-2,
        "min_successes": 4,
    },
    "gradcheck": {"probes": 3, "samples": 40, "tolerance": 1e-4},
}


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
    if jobs and jobs > 1 and len(args_list) > 1:
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
    return {"timestamps": rep.timestamps_checked, "counterexamples": ces}


def _w_depth_bound(args):
    seed, idx, n_nodes, disconnected = args
    a, b = make_pair(seed, idx, n_nodes, disconnected=disconnected)
    rep = verify_depth_bound([(a, b)], n_bound=n_nodes)
    ces = [
        {
            "pair_index": idx,
            "disconnected_corpus": disconnected,
            "violation": {k: v for k, v in v_.items() if k != "pair"},
            **_pair_json(a, b),
        }
        for v_ in rep.violations
    ]
    return {
        "node_pairs": rep.node_pairs_checked,
        "disconnected_timestamps": rep.disconnected_timestamps,
        "counterexamples": ces,
    }


def _w_iso(args):
    seed, idx, n_nodes = args
    cfg = pair_config(idx, n_nodes)
    g1, g2, mapping = generate_isomorphic_pair(cfg, sub_seed(seed, idx, 0))
    witness_ok = check_isomorphism_witness(g1, g2, mapping, IDENTITY)
    oracle = brute_force_isomorphic(g1, g2, IDENTITY)
    cwl_ok = graph_cwl_equivalent(g1, g2, mode=BIJECTION)
    ces = []
    if not (witness_ok and oracle.isomorphic and cwl_ok):
        ces.append({
            "pair_index": idx,
            "witness_verified": witness_ok,
            "brute_force_isomorphic": oracle.isomorphic,
            "cwl_equivalent": cwl_ok,
            **_pair_json(g1, g2),
        })
    return {"counterexamples": ces}


def _w_decomposition(args):
    seed, idx, n_nodes = args
    a, b = make_pair(seed, idx, n_nodes)
    if not graph_cwl_equivalent(a, b, mode=BIJECTION):
        return {"equivalent": 0, "counterexamples": []}
    ces = [
        {"pair_index": idx, "timestamp_index": i, **_pair_json(a, b)}
        for i, (s1, s2) in enumerate(zip(snapshots(a), snapshots(b)))
        if not match_components(s1, s2).class_counts_match
    ]
    return {"equivalent": 1, "counterexamples": ces}


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
        {
            "pair_index": idx,
            "kind": "numeric-refinement",
            "seed": v["seed"],
            "prefix_length": v["prefix_length"],
            "nodes": v["nodes"],
            **_pair_json(*pair),
        }
        for v in rep.numeric_violations
    ]
    return {"symbolic_exact": rep.symbolic_exact, "counterexamples": ces}


APPROX_CONFIG = GeneratorConfig(n_nodes=4, n_events=3, dim=1, attr_values=2)


def approximation_corpus(seed, graphs):
    return [generate(APPROX_CONFIG, sub_seed(seed, 0, i)) for i in range(graphs)]


def _term_identity(sigs, i):
    """Structural state class of a live (node, timestamp) term.

    A (re)appearing node's state is its raw current embedding, so every
    appearance slot with the same tree shares one state bitwise, at any
    timestamp in any corpus graph.  Older nodes carry a per-interval cell
    chain, shared only when start index and signature chain both agree.
    """
    j = i
    while j > 0 and sigs[j - 1] != 0:
        j -= 1
    if j == i:
        return ("fresh", sigs[i])
    return ("chain", j, tuple(sigs[j : i + 1]))


def _approx_anchor(corpus):
    """Pick an anchor whose prefix-indicator the model class can realize.

    Prefix-respecting tables can still conflict with the restart semantics
    (two terms may share a state bitwise while their prefixes differ), so
    candidates whose indicator would label any structural state class
    inconsistently are rejected.
    """
    prefixes = cut_trajectories(list(corpus))
    terms = []
    for trajs in prefixes:
        for v, traj in sorted(trajs.items()):
            for i, sig in enumerate(traj.sigs):
                if sig != 0:
                    terms.append((_term_identity(traj.sigs, i), i, traj.sigs[: i + 1]))
    candidates = [
        (gi, v)
        for gi, trajs in enumerate(prefixes)
        for v, traj in sorted(trajs.items())
        if all(s != 0 for s in traj.sigs)
    ]
    for gi, v in candidates:
        anchor_keys = {
            (i, prefixes[gi][v].sigs[: i + 1])
            for i in range(len(prefixes[gi][v].sigs))
        }
        seen = {}
        if all(
            seen.setdefault(ident, (i, prefix) in anchor_keys)
            == ((i, prefix) in anchor_keys)
            for ident, i, prefix in terms
        ):
            return gi, v
    if candidates:
        return candidates[0]
    return 0, sorted(prefixes[0])[0]


def _w_approximation(args):
    seed, train_seed, graphs, steps, lr, goal = args
    corpus = approximation_corpus(seed, graphs)
    anchor_graph, anchor_node = _approx_anchor(corpus)
    target = CdynTarget.prefix_indicator(corpus, anchor_graph, anchor_node)
    sgnn = SgnnConfig(mode="numeric", layers=2, hidden_dim=8)
    temporal = TemporalConfig(mode=PER_INTERVAL, state_dim=8)
    result = train_to_target(
        corpus, target, sgnn, temporal,
        steps=steps, lr=lr, seed=train_seed, goal=goal,
    )
    return {
        "train_seed": train_seed,
        "final_loss": result.final_loss,
        "initial_loss": result.initial_loss,
        "steps_run": result.steps_run,
    }


GRADCHECK_CONFIG = GeneratorConfig(n_nodes=3, n_events=2, dim=1, attr_values=2)


def _w_gradcheck(args):
    seed, probe_idx, mode, samples = args
    probe = generate(GRADCHECK_CONFIG, sub_seed(seed, 1, probe_idx))
    sgnn = SgnnConfig(mode="numeric", layers=2, hidden_dim=4, mlp_hidden=8)
    temporal = TemporalConfig(mode=mode, state_dim=4, mlp_hidden=8)
    err = gradient_check(
        probe, sgnn, temporal, n_samples=samples, seed=probe_idx
    )
    return {"probe": probe_idx, "mode": mode, "max_relative_error": err}


# ---------------------------------------------------------------------------
# Experiment bodies


def _run_cut_cwl(seed, sizes, jobs):
    args = [(seed, idx, sizes["n_nodes"]) for idx in range(sizes["pairs"])]
    outs = _parallel_map(_w_cut_cwl, args, jobs)
    ces = [c for o in outs for c in o["counterexamples"]]
    results = {
        "pairs_checked": len(outs),
        "timestamps_checked": sum(o["timestamps"] for o in outs),
        "mismatches": len(ces),
    }
    return results, ces


def _run_depth_bound(seed, sizes, jobs):
    args = [(seed, idx, sizes["n_nodes"], False) for idx in range(sizes["pairs"])]
    args += [
        (seed, idx, sizes["n_nodes"], True)
        for idx in range(sizes["disconnected_pairs"])
    ]
    outs = _parallel_map(_w_depth_bound, args, jobs)
    ces = [c for o in outs for c in o["counterexamples"]]
    results = {
        "pairs_checked": len(outs),
        "disconnected_pairs_checked": sizes["disconnected_pairs"],
        "node_pairs_checked": sum(o["node_pairs"] for o in outs),
        "disconnected_timestamps": sum(o["disconnected_timestamps"] for o in outs),
        "violations": len(ces),
    }
    return results, ces


def _run_iso(seed, sizes, jobs):
    args = [(seed, idx, sizes["n_nodes"]) for idx in range(sizes["pairs"])]
    outs = _parallel_map(_w_iso, args, jobs)
    ces = [c for o in outs for c in o["counterexamples"]]
    results = {
        "pairs_checked": len(outs),
        "pairs_passed": len(outs) - len({c["pair_index"] for c in ces}),
    }
    return results, ces


def _run_decomposition(seed, sizes, jobs):
    ces = []
    demo = {}
    tri, cyc = two_triangles(), six_cycle()
    demo["cwl_equivalent"] = graph_cwl_equivalent(tri, cyc, mode=BIJECTION)
    demo["cut_equivalent"] = graph_cut_equivalent(tri, cyc).equivalent
    demo["isomorphic"] = brute_force_isomorphic(tri, cyc, IDENTITY).isomorphic
    verdict = match_components(snapshots(tri)[0], snapshots(cyc)[0])
    demo["class_counts_match"] = verdict.class_counts_match
    demo["component_counts_match"] = verdict.component_counts_match
    expected = {
        "cwl_equivalent": True,
        "cut_equivalent": True,
        "isomorphic": False,
        "class_counts_match": True,
        "component_counts_match": False,
    }
    if demo != expected:
        ces.append({"kind": "fixed-demo", "observed": demo, "expected": expected})
    args = [(seed, idx, sizes["n_nodes"]) for idx in range(sizes["pairs"])]
    outs = _parallel_map(_w_decomposition, args, jobs)
    ces += [c for o in outs for c in o["counterexamples"]]
    results = {
        "fixed_demo": demo,
        "pairs_checked": len(outs),
        "equivalent_pairs_checked": sum(o["equivalent"] for o in outs),
        "violations": len([c for c in ces if c.get("kind") != "fixed-demo"]),
    }
    return results, ces


def _run_expressivity(seed, sizes, jobs):
    args = [
        (seed, idx, sizes["n_nodes"], sizes["seeds"], sizes["layers"])
        for idx in range(sizes["pairs"])
    ]
    outs = _parallel_map(_w_expressivity, args, jobs)
    ces = [c for o in outs for c in o["counterexamples"]]
    results = {
        "pairs_checked": len(outs),
        "symbolic_exact": sum(o["symbolic_exact"] for o in outs),
        "numeric_seeds_per_pair": sizes["seeds"],
        "violations": len(ces),
    }
    return results, ces


def _run_approximation(seed, sizes, jobs):
    anchor_graph, anchor_node = _approx_anchor(approximation_corpus(seed, sizes["graphs"]))
    args = [
        (seed, s, sizes["graphs"], sizes["steps"], sizes["lr"], sizes["goal"])
        for s in range(sizes["seeds"])
    ]
    outs = _parallel_map(_w_approximation, args, jobs)
    successes = [o for o in outs if o["final_loss"] <= sizes["goal"]]
    ces = [
        {"kind": "seed-missed-goal", **o}
        for o in outs
        if o["final_loss"] > sizes["goal"]
    ]
    if len(successes) >= sizes["min_successes"]:
        ces = []
    results = {
        "anchor_graph": anchor_graph,
        "anchor_node": anchor_node,
        "runs": outs,
        "goal": sizes["goal"],
        "successes": len(successes),
        "required": sizes["min_successes"],
    }
    return results, ces


def _run_gradcheck(seed, sizes, jobs):
    args = [
        (seed, p, mode, sizes["samples"])
        for p in range(sizes["probes"])
        for mode in (PER_INTERVAL, SHARED_DT)
    ]
    outs = _parallel_map(_w_gradcheck, args, jobs)
    tol = sizes["tolerance"]
    ces = [dict(o) for o in outs if o["max_relative_error"] > tol]
    results = {
        "checks": outs,
        "tolerance": tol,
        "max_relative_error": max(o["max_relative_error"] for o in outs),
    }
    return results, ces


_RUNNERS = {
    "cut-cwl": _run_cut_cwl,
    "depth-bound": _run_depth_bound,
    "iso-soundness": _run_iso,
    "decomposition": _run_decomposition,
    "expressivity": _run_expressivity,
    "approximation": _run_approximation,
    "gradcheck": _run_gradcheck,
}


def run_experiment(name, seed=0, jobs=1, out=None, **overrides):
    """Run one named certification and return its report.

    Size overrides with value None fall back to the experiment's defaults;
    an integer size below 1 (below 0 for ``disconnected_pairs``, ``steps``
    and ``min_successes``) raises ``ValueError``, so no certification passes
    on an empty corpus.  ``out`` additionally writes the JSON report to that
    path.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
    sizes = dict(DEFAULT_SIZES[name])
    for k, v in overrides.items():
        if v is None:
            continue
        if k not in sizes:
            raise ValueError(f"experiment {name!r} takes no parameter {k!r}")
        least = 0 if k in ("disconnected_pairs", "steps", "min_successes") else 1
        if isinstance(sizes[k], int) and v < least:
            raise ValueError(f"experiment {name!r}: {k} must be at least {least}, got {v}")
        sizes[k] = v
    t0 = time.perf_counter()
    results, ces = _RUNNERS[name](seed, sizes, jobs)
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
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx in range(n_pairs):
        a, b = make_pair(seed, idx, n_nodes, disconnected=disconnected, mixed=mixed)
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
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    config = config or APPROX_CONFIG
    entries = []
    for idx in range(n_streams):
        g = generate(config, sub_seed(seed, 0, idx))
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


def load_manifest(dirpath):
    return json.loads((Path(dirpath) / "manifest.json").read_text())


def _checked_manifest(dirpath, kind, files):
    """The manifest, once every ``kind`` entry names each of ``files`` as a string."""
    manifest, path = load_manifest(dirpath), Path(dirpath) / "manifest.json"
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

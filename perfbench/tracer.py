"""Spans and counters around the library's public functions, from outside it.

``Tracer.install`` rebinds each function in ``SPANNED`` at every name the
package's modules call it by (``from .wl import awl_step`` makes
``cdgwl.trees.awl_step`` a second binding of the same function), wraps
``Mlp.forward`` and ``Mlp.backward`` on their class, and counts calls to
``attr_bytes`` and ``ColorDictionary.id_of``.  ``uninstall`` puts every
original back.  Nothing under ``src/`` is edited.

A span records its name, start, end and parent span.  Spans are kept in
flat in-memory arrays and written out once, at the end.  A span's self
time is its duration minus its children's durations and minus the time the
tracer spent inside it on bookkeeping (counting distinct rows, classifying
levels), which is charged to ``trace.bookkeeping`` instead; so the self
times plus the bookkeeping add up to the root span's duration.
"""

from __future__ import annotations

import contextlib
import sys
import time
import weakref
from array import array
from collections import Counter

import numpy as np

SPANNED = {
    "cdg": ("validate_stream", "snapshots"),
    "serialize": ("cdg_from_jsonl", "cdg_to_jsonl"),
    "generate": ("generate", "generate_isomorphic_pair", "relabel_cdg"),
    "wl": (
        "awl_init",
        "awl_step",
        "awl_stable",
        "refine_at_depth",
        "merged_snapshot",
        "partition_of",
        "cwl",
        "compare_graphs",
    ),
    "trees": (
        "tree_sig_levels",
        "tree_sigs_stable",
        "cut_trajectories",
        "graph_cut_equivalent",
        "stable_trajectories",
        "verify_cut_cwl_correspondence",
        "verify_depth_bound",
    ),
    "components": ("components", "match_components"),
    "iso": ("brute_force_isomorphic", "check_isomorphism_witness"),
    "cgnn": (
        "cgnn_forward",
        "symbolic_state_trajectories",
        "loss_and_gradients",
        "training_loss",
        "train_to_target",
        "gradient_check",
        "expressivity_check",
    ),
    "experiments": ("run_experiment",),
}

# Calls whose Mlp inputs form one batch for the distinct-row count: the rows
# a batched network could evaluate once per layer.
ROW_SCOPES = ("cgnn.loss_and_gradients", "cgnn.training_loss", "cgnn.cgnn_forward")

BACKWARD_PARTS = (("aggr", "encoder"), ("comb", "encoder"), ("cell", "temporal"), ("readout", "readout"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.bookkeeping = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._quiet = [0]
        self._undo = []
        self._graphs = {}
        self._rows = set()

    # -- recording -------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, after=None, pick=None):
        """A span around ``fn``; ``after(args, kwargs, result)`` runs as bookkeeping.

        ``pick(args, kwargs)`` may choose the span's name per call.
        """
        fixed = self.name_id(name)
        clock = time.perf_counter
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        bookkeeping, stack, quiet = self.bookkeeping, self.stack, self._quiet

        def traced(*args, **kwargs):
            if quiet[0]:
                return fn(*args, **kwargs)
            i = len(start)
            span_name.append(pick(args, kwargs) if pick else fixed)
            parent.append(stack[-1])
            end.append(0.0)
            bookkeeping.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(args, kwargs, result)
                bookkeeping[stack[-1]] += clock() - t0
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name="bench.pass"):
        """One span that every span recorded inside the block descends from."""
        i = len(self.start)
        self.span_name.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.bookkeeping.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def quiet(self):
        """Run library calls without spans or counts (output checks)."""
        self._quiet[0] += 1
        try:
            yield
        finally:
            self._quiet[0] -= 1

    # -- hooks -----------------------------------------------------------

    def _after_snapshots(self, args, kwargs, result):
        g = _arg(args, kwargs, 0, "cdg")
        ref = self._graphs.get(id(g))
        if ref is None or ref() is not g:
            self._graphs[id(g)] = weakref.ref(g)
            self.counts["cdg.graphs"] += 1

    def _after_parse(self, args, kwargs, result):
        self.counts["serialize.parse_bytes"] += len(_arg(args, kwargs, 0, "text").encode())

    def _after_awl_stable(self, args, kwargs, result):
        self.counts["wl.rounds"] += result[1]

    def _after_levels(self, args, kwargs, result):
        universe_ = _arg(args, kwargs, 1, "universe_")
        max_depth = _arg(args, kwargs, 3, "max_depth")
        self.counts["trees.node_levels"] += (max_depth + 1) * len(universe_)
        # Level d refines level d-1 (a depth-d tree determines its depth-(d-1)
        # truncation), so the partition changes exactly when the class count does.
        classes = [len(set(level.values())) for level in result]
        self.counts["trees.levels"] += len(classes) - 1
        self.counts["trees.changing_levels"] += sum(
            a != b for a, b in zip(classes, classes[1:])
        )

    def _after_mlp_forward(self, args, kwargs, result):
        mlp, x = args[0], _arg(args, kwargs, 1, "x")
        self.counts["cgnn.mlp.forward_rows"] += x.shape[0]
        self._rows.update((id(mlp), row.tobytes()) for row in x)

    def _flush_rows(self, *_):
        self.counts["cgnn.mlp.distinct_rows"] += len(self._rows)
        self._rows.clear()

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items()) if n == "cdgwl" or n.startswith("cdgwl.")]

    def _rebind(self, fn, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _counting(self, key, fn):
        counts, quiet = self.counts, self._quiet

        def counted(*args, **kwargs):
            if not quiet[0]:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        hooks = {
            "cdg.snapshots": self._after_snapshots,
            "serialize.cdg_from_jsonl": self._after_parse,
            "wl.awl_stable": self._after_awl_stable,
            "trees.tree_sig_levels": self._after_levels,
        }
        hooks.update(dict.fromkeys(ROW_SCOPES, self._flush_rows))
        for module_name, attrs in SPANNED.items():
            module = sys.modules[f"cdgwl.{module_name}"]
            for attr in attrs:
                fn = getattr(module, attr)
                name = f"{module_name}.{attr}"
                self._rebind(fn, self.wrap(name, fn, hooks.get(name)))

        cdg = sys.modules["cdgwl.cdg"]
        self._rebind(cdg.attr_bytes, self._counting("cdg.attr_bytes_calls", cdg.attr_bytes))

        cgnn = sys.modules["cdgwl.cgnn"]
        mlp = cgnn.Mlp
        self._patch(mlp, "forward", self.wrap("cgnn.Mlp.forward", mlp.forward, self._after_mlp_forward))
        part_ids = {p: self.name_id(f"cgnn.Mlp.backward.{part}") for p, part in BACKWARD_PARTS}
        other = self.name_id("cgnn.Mlp.backward.other")

        def backward_part(args, kwargs):
            prefix = _arg(args, kwargs, 4, "prefix")
            for p, nid in part_ids.items():
                if prefix.startswith(p):
                    return nid
            return other

        self._patch(mlp, "backward", self.wrap("cgnn.Mlp.backward", mlp.backward, pick=backward_part))

        dictionary = sys.modules["cdgwl.wl"].ColorDictionary
        id_of, counts, quiet = dictionary.id_of, self.counts, self._quiet

        def counted_id_of(self_, key):
            if quiet[0]:
                return id_of(self_, key)
            before = len(self_)
            got = id_of(self_, key)
            counts["wl.dictionary.id_of_calls"] += 1
            if len(self_) != before:
                counts["wl.dictionary.keys_minted"] += 1
            return got

        self._patch(dictionary, "id_of", counted_id_of)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._flush_rows()

    # -- results ---------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end, bookkeeping."""
        return (
            np.array(self.span_name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.bookkeeping, dtype=float),
        )

    def save(self, path, **extra):
        name, parent, start, end, bookkeeping = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
            bookkeeping=bookkeeping,
            **extra,
        )


def self_times(name, parent, start, end, bookkeeping, n_names):
    """Per-name self time, total time and calls, plus total bookkeeping."""
    duration = end - start
    children = np.bincount(parent + 1, weights=duration, minlength=len(duration) + 1)[1:]
    own = duration - children - bookkeeping
    return (
        np.bincount(name, weights=own, minlength=n_names),
        np.bincount(name, weights=duration, minlength=n_names),
        np.bincount(name, minlength=n_names),
        float(bookkeeping.sum()),
    )


def layer_metrics(tracer):
    """The per-layer metrics that spans and counters give, as name -> (value, unit)."""
    arrays = tracer.arrays()
    own, total, calls, bookkeeping = self_times(*arrays, len(tracer.names))
    ids = tracer._name_ids

    def s(*names):
        return float(sum(own[ids[n]] for n in names if n in ids))

    def n(*names):
        return int(sum(calls[ids[x]] for x in names if x in ids))

    def ratio(a, b):
        return a / b if b else 0.0

    k = tracer.counts
    backward = [f"cgnn.Mlp.backward.{part}" for part in ("encoder", "temporal", "readout", "other")]
    forward_calls = n("cgnn.Mlp.forward")
    step = ids.get("cgnn.loss_and_gradients")
    return {
        "cdg.validate_s": (s("cdg.validate_stream"), "s"),
        "cdg.snapshots_s": (s("cdg.snapshots"), "s"),
        "cdg.snapshots_calls": (n("cdg.snapshots"), "count"),
        "cdg.snapshots_per_graph": (ratio(n("cdg.snapshots"), k["cdg.graphs"]), "ratio"),
        "cdg.attr_bytes_calls": (k["cdg.attr_bytes_calls"], "count"),
        "serialize.parse_s": (s("serialize.cdg_from_jsonl"), "s"),
        "serialize.parse_bytes": (k["serialize.parse_bytes"], "bytes"),
        "generate.generate_s": (s("generate.generate"), "s"),
        "generate.calls": (n("generate.generate"), "count"),
        "wl.refine_s": (s("wl.awl_init", "wl.awl_step", "wl.awl_stable", "wl.refine_at_depth"), "s"),
        "wl.refine_calls": (n("wl.awl_stable", "wl.refine_at_depth"), "count"),
        "wl.rounds": (k["wl.rounds"], "count"),
        "wl.merge_s": (s("wl.merged_snapshot"), "s"),
        "wl.partition_s": (s("wl.partition_of"), "s"),
        "wl.dictionary.id_of_calls": (k["wl.dictionary.id_of_calls"], "count"),
        "wl.dictionary.keys_minted": (k["wl.dictionary.keys_minted"], "count"),
        "wl.dictionary.new_key_ratio": (
            ratio(k["wl.dictionary.keys_minted"], k["wl.dictionary.id_of_calls"]), "ratio"),
        "trees.levels_s": (s("trees.tree_sig_levels"), "s"),
        "trees.node_levels": (k["trees.node_levels"], "count"),
        "trees.changing_level_ratio": (ratio(k["trees.changing_levels"], k["trees.levels"]), "ratio"),
        "trees.stable_s": (s("trees.tree_sigs_stable"), "s"),
        "trees.verify_s": (s("trees.verify_depth_bound", "trees.verify_cut_cwl_correspondence"), "s"),
        "components.components_s": (s("components.components"), "s"),
        "components.calls": (n("components.components"), "count"),
        "components.match_s": (s("components.match_components"), "s"),
        "iso.search_s": (s("iso.brute_force_isomorphic"), "s"),
        "iso.search_calls": (n("iso.brute_force_isomorphic"), "count"),
        "iso.witness_s": (s("iso.check_isomorphism_witness"), "s"),
        "cgnn.mlp.forward_calls": (forward_calls, "count"),
        "cgnn.mlp.forward_rows": (k["cgnn.mlp.forward_rows"], "count"),
        "cgnn.mlp.rows_per_call": (ratio(k["cgnn.mlp.forward_rows"], forward_calls), "rows/call"),
        "cgnn.mlp.distinct_row_ratio": (
            ratio(k["cgnn.mlp.distinct_rows"], k["cgnn.mlp.forward_rows"]), "ratio"),
        "cgnn.mlp.forward_s": (s("cgnn.Mlp.forward"), "s"),
        "cgnn.mlp.backward_calls": (n(*backward), "count"),
        "cgnn.mlp.backward_s": (s(*backward), "s"),
        "cgnn.encoder.backward_s": (s("cgnn.Mlp.backward.encoder"), "s"),
        "cgnn.temporal.backward_s": (s("cgnn.Mlp.backward.temporal"), "s"),
        "cgnn.readout.backward_s": (s("cgnn.Mlp.backward.readout"), "s"),
        "cgnn.steps": (n("cgnn.loss_and_gradients"), "count"),
        "cgnn.step_s": (float(total[step]) if step is not None else 0.0, "s"),
        "cgnn.forward_s": (s("cgnn.cgnn_forward"), "s"),
        "cgnn.symbolic_s": (s("cgnn.symbolic_state_trajectories"), "s"),
        "trace.spans": (len(arrays[0]), "count"),
        "trace.bookkeeping_s": (bookkeeping, "s"),
    }

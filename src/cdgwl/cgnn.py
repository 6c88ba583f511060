"""A small dynamic graph network over event streams.

Per timestamp, a message-passing encoder computes node embeddings from the
snapshot; a recurrent update then folds each node's embedding into its
running state.  Nodes that are not alive carry no state (a None marker,
never a zero vector); a node that reappears restarts from its fresh
embedding.

The network is trainable, with hand-written backpropagation.  Its
injective counterpart, refinement as the encoder and injective pairing as
the update, is ``symbolic_state_trajectories``: states there are ids that
carry exactly the refinement history, and ``expressivity_check`` compares
the two.

The network runs a whole corpus as one batch: every live (graph,
timestamp, node) is a slot, each encoder layer is one MLP call over its
edge rows and one over its node rows, and each interval one cell call.  An
embedding depends only on the node's L-hop ball, and one event changes few
balls, so a layer-l row is computed only for the slots whose l-hop ball
changed since the previous timestamp; every other slot reuses its node's
row from there.  A training batch is the same walk with every row new.
Equal input multisets give bitwise-equal states however the corpus is
batched and whichever rows are shared: ``Mlp.forward`` multiplies with
``einsum``, whose result for a row does not depend on the batch (``x @
w.T`` through BLAS does), and a receiver's messages are summed sequentially
from +0.0 in the order of the bit patterns of their input rows, by one
``np.add.at`` call over the edge rows in that order.

Layer 0's own rows, message inputs and summation order depend only on the
batch, so the batch computes them once for every model and step.  Only a
pass that computes gradients keeps each layer's and each interval's inputs
and activations for the backward pass; forward passes (``cgnn_forward``,
``expressivity_check``) and loss-only passes keep none.

The same kernels run a stack of models on one batch: every parameter and
every row batch then has a leading model axis.  Each model's rows go
through the one-model ``einsum``; the backward products are ``np.matmul``
over the stack, which makes per model the BLAS call that ``@`` makes for
one; and one ``np.add.at`` sums every model's messages, at flat rows
``model * rows + row`` and in each model's canonical order.  So a model
gets the same bits alone and in any stack.  Training runs every seed of a
corpus as one stack (``_train_stack``; ``train_to_target`` is a stack of
one): the parameters are the rows of one array and the gradients the rows
of another, so a step zeroes and updates all of them with one call each
and runs one forward and one backward pass for every seed.  A seed leaves
the stack at the step that reaches its goal, keeping the parameters its
own run would end with.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .cdg import ATTR_CHANGE, DELETE, NODE, timestamps, universe
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidBoundError,
    LengthMismatchError,
    MalformedTargetError,
    TargetNotCutRespectingError,
    TargetUndefinedError,
)
from .trees import cut_trajectories
from .wl import (
    BOTTOM,
    ColorDictionary,
    _by_graph,
    _colors_at,
    _joint_timeline,
    _joint_trajectories,
    check_comparable,
    partition_of,
)

NUMERIC = "numeric"
PER_INTERVAL = "per-interval"
SHARED_DT = "shared-dt"


@dataclass(frozen=True)
class SgnnConfig:
    """Encoder hyperparameters.

    ``depth_bound(n)`` is the decisive layer count for graphs of at most
    ``n`` nodes.  ``mode`` has the one value ``NUMERIC``.
    """

    mode: str = NUMERIC
    layers: int = 3
    hidden_dim: int = 8
    mlp_hidden: int = 16


@dataclass(frozen=True)
class TemporalConfig:
    """Recurrent update hyperparameters.

    ``per-interval`` gives every inter-event interval its own cell;
    ``shared-dt`` uses one cell fed the elapsed time as an extra input.
    """

    mode: str = PER_INTERVAL
    state_dim: int = 8
    mlp_hidden: int = 16


def _affine(x, w, b):
    """``x @ w.T + b``, row by row: a row's result never depends on the batch.

    A stack's ``w`` and ``b`` have a leading model axis; each model's rows go
    through the one-model product, and rows without the model axis are every
    model's input.
    """
    if w.ndim == 2:
        return np.einsum("ij,kj->ik", x, w) + b
    out = np.empty((len(w), x.shape[-2], w.shape[1]))
    for k, wk in enumerate(w):
        np.einsum("ij,kj->ik", x if x.ndim == 2 else x[k], wk, out=out[k])
    out += b[:, None]
    return out


def _t(m):
    """The transpose of each model's matrix."""
    return m.swapaxes(-1, -2)


@dataclass
class Mlp:
    """Two affine layers around a tanh; operates on row batches.

    In a stack (see ``_flatten``) every parameter and every row batch has a
    leading model axis.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, rng, in_dim, hidden, out_dim):
        w1 = rng.normal(0.0, 1.0, (hidden, in_dim)) / math.sqrt(in_dim)
        w2 = rng.normal(0.0, 1.0, (out_dim, hidden)) / math.sqrt(hidden)
        return cls(w1, np.zeros(hidden), w2, np.zeros(out_dim))

    def forward(self, x):
        a = np.tanh(_affine(x, self.w1, self.b1))
        return _affine(a, self.w2, self.b2), (x, a)

    def backward(self, dy, cache, grads, prefix):
        x, a = cache
        grads[f"{prefix}.w2"] += _t(dy) @ a
        grads[f"{prefix}.b2"] += dy.sum(axis=-2)
        da = dy @ self.w2
        dz = da * (1.0 - a * a)
        grads[f"{prefix}.w1"] += _t(dz) @ x
        grads[f"{prefix}.b1"] += dz.sum(axis=-2)
        return dz @ self.w1


@dataclass(frozen=True, eq=False)
class StateMatrix:
    """Per-node embedding and state maps at one timestamp (None = absent).

    ``hidden`` and ``state`` are read-only mappings from every node of the
    universe, in universe order, to its row of the graph's embedding or state
    matrix, or None while the node is absent.  A row is a view of its matrix,
    made when it is read.  ``==`` is identity, since rows have no truth
    value; compare two results row by row with ``np.array_equal``.
    """

    time: float
    hidden: Mapping
    state: Mapping


class _Rows(Mapping):
    """Node -> its row of ``matrix`` at one timestamp, or None while the node is absent.

    ``position`` maps each universe node to its column of the slot table,
    and ``slots`` is the timestamp's row of that table: each node's row of
    ``matrix``, or -1.  An id outside the universe raises ``KeyError``.
    """

    __slots__ = ("_matrix", "_slots", "_position")

    def __init__(self, matrix, slots, position):
        self._matrix, self._slots, self._position = matrix, slots, position

    def __getitem__(self, v):
        k = self._slots[self._position[v]]
        return None if k < 0 else self._matrix[k]

    def __iter__(self):
        return iter(self._position)

    def __len__(self):
        return len(self._position)

    def __repr__(self):
        return repr(dict(self))


@dataclass
class CgnnModel:
    """Configs plus parameters; ``adapter`` is None when ``hidden_dim == state_dim``."""

    sgnn: SgnnConfig
    temporal: TemporalConfig
    attr_dim: int
    out_dim: int
    aggr: list
    comb: list
    cells: list
    readout_net: Mlp
    adapter: list | None

    @classmethod
    def init(cls, attr_dim, out_dim, sgnn, temporal, n_intervals, seed=0):
        if sgnn.mode != NUMERIC:
            raise ValueError(f"unknown encoder mode {sgnn.mode!r}")
        for cfg, name in ((sgnn, "layers"), (sgnn, "hidden_dim"), (sgnn, "mlp_hidden"),
                          (temporal, "state_dim"), (temporal, "mlp_hidden")):
            size = getattr(cfg, name)
            if size is None or size < 1:
                raise InvalidBoundError(f"{type(cfg).__name__}.{name} must be at least 1, got {size}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        r, s, d = sgnn.hidden_dim, temporal.state_dim, attr_dim
        aggr, comb = [], []
        for li in range(sgnn.layers):
            h_in = d if li == 0 else r
            aggr.append(Mlp.init(rng, h_in + d, sgnn.mlp_hidden, r))
            comb.append(Mlp.init(rng, h_in + r, sgnn.mlp_hidden, r))
        if temporal.mode == PER_INTERVAL:
            cells = [Mlp.init(rng, s + r, temporal.mlp_hidden, s) for _ in range(n_intervals)]
        elif temporal.mode == SHARED_DT:
            cells = [Mlp.init(rng, s + r + 1, temporal.mlp_hidden, s)]
        else:
            raise ValueError(f"unknown temporal mode {temporal.mode!r}")
        readout_net = Mlp.init(rng, s, temporal.mlp_hidden, out_dim)
        adapter = None
        if r != s:
            adapter = [rng.normal(0.0, 1.0, (s, r)) / math.sqrt(r), np.zeros(s)]
        return cls(
            sgnn, temporal, attr_dim, out_dim,
            aggr=aggr, comb=comb, cells=cells, readout_net=readout_net, adapter=adapter,
        )

    def parameters(self):
        return [(name, holder[key]) for name, holder, key in self._slots()]

    def _slots(self):
        """(name, holder, key) per parameter, in ``parameters()`` order: it is ``holder[key]``."""
        groups = {"aggr": self.aggr, "comb": self.comb, "cell": self.cells}
        nets = [(f"{kind}{i}", m) for kind, ms in groups.items() for i, m in enumerate(ms)]
        nets.append(("readout", self.readout_net))
        out = [(f"{p}.{k}", vars(m), k) for p, m in nets for k in ("w1", "b1", "w2", "b2")]
        if self.adapter is not None:
            out += [("adapter.w", self.adapter, 0), ("adapter.b", self.adapter, 1)]
        return out


class _Batch:
    """A corpus laid out for the numeric network, built once from its events.

    ``streams`` holds (universe, start nodes, start edges, events) per graph.
    Slot ``k`` is the live (graph, timestamp, node) at column ``k`` of the
    (3, slots) index array ``slots``: its graph, its timestamp index and the
    node's position in its graph's universe.  Slots run by graph, then
    timestamp, then universe order, and ``slot_table[g, i, p]`` is the slot
    of graph ``g``'s node at position ``p`` at timestamp ``i``, or -1 while
    it is absent (or past the graph's last timestamp).  ``fresh`` lists the
    slots whose state is their embedding; interval ``i`` is (i, previous
    slots, current slots, elapsed-time column) for the nodes live at both
    timestamps ``i - 1`` and ``i``, by graph, then universe order.

    ``layers[l]`` is what encoder layer ``l`` computes: (own, recv, send,
    edge attributes).  Its output row ``r`` combines input row ``own[r]``
    with the messages of the edge rows ``e`` with ``recv[e] == r``, each from
    input row ``send[e]``; layer 0's input rows are ``attrs``.  ``out`` maps
    each slot to its row of the last layer.  ``first`` holds what layer 0
    reads and no parameter changes: its own rows, its message inputs and
    their canonical summation order, computed once for every model and step.

    A layer-l row is computed only for a slot whose l-hop ball changed since
    the node's previous timestamp, and every other slot reads the row of the
    same node at that timestamp.  At the input, a slot is new when the node
    (re)appeared or a node event hit it, whatever its value; at layer l it is
    also new when its edge list changed (both ends of an edge event, every
    neighbour of a deleted node) or a neighbour's input row is new.  No bit
    moves: ``Mlp.forward`` gives a row the same bits in any batch, and
    ``_encode`` sums each receiver's messages with one ``np.add.at`` in the
    order ``_canonical_order`` gives, the bit order of their inputs, so a
    row computed from inputs bitwise equal to those of the row it would
    reuse comes out bitwise equal.

    The walk over the events pays only for what they reach: it decides the
    new rows and records the liveness changes (start nodes, node adds and
    deletes) and the place of each last-layer row, never visiting a slot
    whose rows it reuses.  Once per batch, array operations over a
    (timestamp, graph, position) liveness table then lay out the slots, ``fresh``,
    the intervals and ``out``: a slot's last-layer row is the latest one its
    node got up to its timestamp, since rows are appended in time order.

    A level whose rows are all new lists its edge rows by the snapshot's
    edges, in order, each in both directions.  A target makes every row new,
    so training sums each slot's gradients in that fixed order.  ``targets``
    holds each slot's target row, so an undefined target, or a corpus with no
    live slot (whose loss is 0 whatever the parameters), raises here, before
    any step.
    """

    def __init__(self, streams, dim, layers, target=None, prefixes=None):
        attrs, table, own, messages = [], [], [[] for _ in range(layers)], [[] for _ in range(layers)]
        lengths = [len(events) + 1 for *_, events in streams]
        width = max([len(us) for us, *_ in streams], default=0)
        shape = (max(lengths, default=1), len(streams), width)
        step = len(streams) * width  # table places per timestamp
        # the flat (timestamp, graph, position) places of each liveness change
        # and of each last-layer row, in row order; each interval's elapsed time
        flips, last, elapsed = [], [], [0.0] * (shape[0] * shape[1])
        for gi, (us, nodes, edges, events) in enumerate(streams):
            graph = _Replay(us, nodes, edges, table)
            nodes, adj = graph.nodes, graph.adj
            latest = [[None] * len(us) for _ in range(layers + 1)]  # each node's latest row, per level
            col = gi * width
            flips += [col + v for v in nodes]
            hit, linked, time = set(nodes), set(), 0.0
            for i in range(len(events) + 1):
                at = i * step + col
                if i:
                    e = events[i - 1]
                    elapsed[i * shape[1] + gi], time = e.time - time, e.time
                    hit, linked = set(), set()
                    graph.apply(e, hit, linked)
                    if e.item == NODE and e.kind != ATTR_CHANGE:
                        flips.append(at + graph.pos[e.key])
                if target is not None:
                    hit.update(nodes)
                new = sorted(filter(nodes.__contains__, hit))
                for v in new:
                    latest[0][v] = len(attrs)
                    attrs.append(nodes[v])
                for rows, edge_rows, r_in, r_out in zip(own, messages, latest, latest[1:]):
                    if len(new) < len(nodes):  # once every slot is new, so is every layer
                        hit |= linked
                        for v in new:
                            hit.update(adj[v])
                        new = sorted(filter(nodes.__contains__, hit))
                    every = len(new) == len(nodes)
                    for r, v in enumerate(new, len(rows)):
                        r_out[v] = r
                        rows.append(r_in[v])
                        if not every:
                            for u, k in adj[v].items():
                                edge_rows += (r, r_in[u], k)
                    if every:
                        for (a, b), k in graph.edges.items():
                            edge_rows += (r_out[a], r_in[b], k, r_out[b], r_in[a], k)
                last += [at + v for v in new]
        self.attrs = _rows(attrs, dim)
        table = _rows(table, dim)
        self.layers = []
        for rows, edge_rows in zip(own, messages):
            to, frm, k = _index(edge_rows).reshape(-1, 3).T
            self.layers.append((_index(rows), to, frm, table[k]))
        own, recv, send, edge_attrs = self.layers[0]
        x = np.concatenate([self.attrs[send], edge_attrs], axis=1)
        self.first = (self.attrs[own], x, _canonical_order(x, recv))
        self._views = {}
        self._lay_out(shape, lengths, flips, last, elapsed)
        if target is not None:
            if not len(self.out):
                raise EmptyInputError("the corpus has no live node, so its loss has no gradient")
            self.targets = np.array(
                [
                    target.value_for(i, prefixes[gi][streams[gi][0][p]].sigs[: i + 1])
                    for gi, i, p in self.slots.T.tolist()
                ],
                dtype=float,
            ).reshape(self.slots.shape[1], target.output_dim)

    def _lay_out(self, shape, lengths, flips, last, elapsed):
        """Slots, ``slot_table``, ``fresh``, ``out`` and the intervals, from the walk's records.

        ``shape`` is (timestamps, graphs, positions), ``lengths`` each graph's
        timestamp count; ``flips`` and ``last`` hold flat places in a table of
        that shape, and ``elapsed`` each (timestamp, graph)'s elapsed time.
        """
        n_times, step = shape[0], shape[1] * shape[2]
        flipped = np.zeros(shape, dtype=bool)
        flipped.reshape(-1)[flips] = True
        alive = np.logical_xor.accumulate(flipped, axis=0)
        if min(lengths, default=n_times) < n_times:  # absent past a shorter stream's end
            alive &= (np.arange(n_times)[:, None] < lengths)[:, :, None]
        born = flipped & alive
        by_graph = alive.transpose(1, 0, 2)
        self.slots = np.array(np.nonzero(by_graph), dtype=np.intp)
        slot = np.full(shape, -1, dtype=np.intp)
        self.slot_table = slot.transpose(1, 0, 2)
        self.slot_table[by_graph] = np.arange(self.slots.shape[1])
        self.fresh = self.slot_table[born.transpose(1, 0, 2)]
        rows = np.full(shape, -1, dtype=np.intp)
        rows.reshape(-1)[last] = np.arange(len(last))
        self.out = np.maximum.accumulate(rows, axis=0).transpose(1, 0, 2)[by_graph]
        # live at a timestamp and not (re)added there: live at the one before
        kept = np.flatnonzero(alive ^ born)
        slot = slot.reshape(-1)
        before, now = slot[kept - step], slot[kept]
        dts = np.array(elapsed)[kept // shape[2]]
        bounds = np.searchsorted(kept, np.arange(n_times + 1) * step).tolist()
        self.intervals = [
            (i, before[a:b], now[a:b], dts[a:b, None])
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))
            if b > a
        ]

    def view(self, lead):
        """What the kernels read for models of leading shape ``lead``, built once per shape.

        ``lead`` is ``()`` for one model and ``(B,)`` for a stack of B, whose
        rows at a layer are the flat rows of its (B, rows) array: row ``r``
        of model ``b`` is flat row ``b * rows + r``.  Returns layer 0's own
        rows and message inputs; the order in which layer 0's flat edge rows
        are summed (each model's in the canonical order); per layer the flat
        receiver and sender row of each edge row and the edge attributes;
        and per interval its elapsed-time column.  A stack sees what every
        model reads alike broadcast along its model axis, but layer 0's
        message inputs stay one array, which ``Mlp`` gives every model.
        """
        got = self._views.get(lead)
        if got is None:
            if lead:
                step = np.arange(lead[0])[:, None]
                flat = lambda index, rows: (index + step * rows).ravel()
                shared = lambda a: np.broadcast_to(a, (*lead, *a.shape))
            else:
                flat, shared = lambda index, rows: index, lambda a: a
            h_own, x, order = self.first
            layers, n_in = [], len(self.attrs)
            for own, recv, send, edge_attrs in self.layers:
                layers.append((flat(recv, len(own)), flat(send, n_in), shared(edge_attrs)))
                n_in = len(own)
            dts = [shared(dt) for *_, dt in self.intervals]
            got = self._views[lead] = (shared(h_own), x, flat(order, len(order)), layers, dts)
        return got


def _index(xs):
    return np.array(xs, dtype=np.intp)


def _rows(xs, dim):
    """The attribute tuples ``xs`` as a (len(xs), dim) float array."""
    return np.fromiter(chain.from_iterable(xs), float, len(xs) * dim).reshape(len(xs), dim)


class _Replay:
    """One graph's state by universe position, changed in place as ``apply_event`` changes it.

    ``nodes`` maps each live node's position to its attribute.  ``edges`` keeps the order of a
    snapshot's edges, each as its (smaller, larger) position pair, the order
    of its endpoints since the universe is sorted; it and ``adj`` (position
    -> {neighbour position: k}) hold for each edge the index ``k`` of its
    attribute in ``table``, which every graph of a batch appends to.
    """

    def __init__(self, us, nodes, edges, table):
        self.pos = pos = {v: p for p, v in enumerate(us)}
        self.nodes = {pos[v]: a for v, a in nodes.items()}
        self.edges, self.adj, self.table = {}, [{} for _ in us], table
        for (u, v), w in edges.items():
            self._link(pos[u], pos[v], w)

    def _link(self, a, b, w):
        self.edges[a, b] = self.adj[a][b] = self.adj[b][a] = len(self.table)
        self.table.append(w)

    def apply(self, e, hit, linked):
        """Apply ``e``: its node goes to ``hit``, each node whose edges it changed to ``linked``."""
        nodes, edges, adj, pos = self.nodes, self.edges, self.adj, self.pos
        if e.item == NODE:
            v = pos[e.key]
            hit.add(v)
            if e.kind != DELETE:
                nodes[v] = e.attr
                return
            del nodes[v]
            for u in adj[v]:
                del adj[u][v], edges[(u, v) if u < v else (v, u)]
            linked.update(adj[v])
            adj[v] = {}
            return
        a, b = pos[e.key[0]], pos[e.key[1]]
        linked.update((a, b))
        if e.kind == DELETE:
            del edges[a, b], adj[a][b], adj[b][a]
        else:
            self._link(a, b, e.attr)


def _stream(g):
    return universe(g), g.start.nodes, g.start.edges, g.events


def _canonical_order(inputs, recv):
    """Edge rows by receiver, each receiver's in the order of the bit patterns of its ``inputs``.

    An equal multiset of inputs is then summed in the same order.
    """
    bits = np.ascontiguousarray(inputs).view(np.int64)
    return np.lexsort((*bits.T[::-1], recv))


def _encode(model, batch, keep=False):
    """All encoder layers over the batch's rows: final embeddings per slot, and caches.

    The caches are the per-layer inputs and activations that the backward
    pass reads; they are kept only if ``keep``, else None.
    """
    lead, r = model.readout_net.b2.shape[:-1], model.sgnn.hidden_dim  # lead: () or (B,)
    h_own, x, order, flat, _dts = batch.view(lead)
    caches = [] if keep else None
    for li, ((own, _recv, send, _ea), (to, _frm, edge_attrs)) in enumerate(zip(batch.layers, flat)):
        if li:
            h_own = h.take(own, axis=-2)
            x = np.concatenate([h.take(send, axis=-2), edge_attrs], axis=-1)
            order = _canonical_order(x.reshape(-1, x.shape[-1]), to)
        m = np.zeros((*lead, len(own), r))
        acache = None
        if len(to):
            msgs, acache = model.aggr[li].forward(x)
            # add.at applies repeated indices in index order: each receiver's
            # messages are summed one after another from +0.0, in canonical order
            np.add.at(m.reshape(-1, r), to[order], msgs.reshape(-1, r)[order])
        h, ccache = model.comb[li].forward(np.concatenate([h_own, m], axis=-1))
        if keep:
            caches.append((acache, ccache))
    return h.take(batch.out, axis=-2), caches


def _temporal(model, batch, h, keep=False):
    """States of every slot: fresh embeddings, then one cell call per interval.

    Returns the states and, only if ``keep``, each interval's cell and cache
    for the backward pass (else None).
    """
    lead = h.shape[:-2]
    q = np.empty((*lead, h.shape[-2], model.temporal.state_dim))
    hf = h.take(batch.fresh, axis=-2)
    q[..., batch.fresh, :] = hf if model.adapter is None else _affine(hf, *model.adapter)
    caches = [] if keep else None
    for (i, prev, cur, _dt), dt in zip(batch.intervals, batch.view(lead)[4]):
        parts = [q.take(prev, axis=-2), h.take(cur, axis=-2)]
        if model.temporal.mode == PER_INTERVAL:
            ci = i - 1
        else:
            ci, parts = 0, [*parts, dt]
        q[..., cur, :], cache = model.cells[ci].forward(np.concatenate(parts, axis=-1))
        if keep:
            caches.append((ci, cache))
    return q, caches


def _loss(model, batch, with_grads=False, grads=None):
    """Mean squared readout error over every slot, plus gradients if asked.

    A stack gets one loss per model.  The gradients accumulate into
    ``grads`` (name -> array) if given, else into fresh zeros.
    """
    h, encoder_caches = _encode(model, batch, with_grads)
    q, cell_caches = _temporal(model, batch, h, with_grads)
    pred, rcache = model.readout_net.forward(q)
    diff = pred - batch.targets
    lead = diff.shape[:-2]
    n_terms = max(diff.shape[-2] * diff.shape[-1], 1)
    loss = np.sum((diff * diff).reshape(*lead, -1), axis=-1) / n_terms
    if not lead:
        loss = float(loss)
    if not with_grads:
        return loss
    if grads is None:
        grads = {name: np.zeros(arr.shape) for name, arr in model.parameters()}
    dq = model.readout_net.backward((2.0 / n_terms) * diff, rcache, grads, "readout")
    dh = np.zeros_like(h)
    s_dim, r = model.temporal.state_dim, model.sgnn.hidden_dim
    for (_i, prev, cur, _dt), (ci, cache) in zip(reversed(batch.intervals), reversed(cell_caches)):
        dx = model.cells[ci].backward(dq.take(cur, axis=-2), cache, grads, f"cell{ci}")
        dq[..., prev, :] += dx[..., :s_dim]
        dh[..., cur, :] += dx[..., s_dim : s_dim + r]
    dqf = dq.take(batch.fresh, axis=-2)
    if model.adapter is None:
        dh[..., batch.fresh, :] += dqf
    else:
        grads["adapter.w"] += _t(dqf) @ h.take(batch.fresh, axis=-2)
        grads["adapter.b"] += dqf.sum(axis=-2)
        dh[..., batch.fresh, :] += dqf @ model.adapter[0]
    flat = batch.view(lead)[3]
    for li in reversed(range(len(batch.layers))):
        acache, ccache = encoder_caches[li]
        recv, frm = batch.layers[li][1], flat[li][1]
        h_in = model.attr_dim if li == 0 else r
        dxc = model.comb[li].backward(dh, ccache, grads, f"comb{li}")
        if acache is not None:
            # one gradient row per edge: duplicate input rows each pass their own;
            # layer 0's inputs are the attributes, which take no gradient
            dx = model.aggr[li].backward(dxc[..., recv, h_in:], acache, grads, f"aggr{li}")
            if li:
                rows = dxc.reshape(-1, h_in + r)
                np.add.at(rows[:, :h_in], frm, dx.reshape(-1, dx.shape[-1])[:, :h_in])
        dh = dxc[..., :h_in]
    return loss, grads


def _check_fits(model, g):
    """Raise unless the numeric ``model`` takes graph ``g``'s attributes and intervals."""
    if g.dim != model.attr_dim:
        raise DimensionMismatchError(
            f"attribute dimension {g.dim}, but the model takes {model.attr_dim}"
        )
    if model.temporal.mode == PER_INTERVAL and len(g.events) > len(model.cells):
        raise LengthMismatchError(
            f"{len(g.events)} intervals, but the model has {len(model.cells)} cells"
        )


def cgnn_forward(cdg_, model):
    """States at every timestamp of one dynamic graph.

    One ``StateMatrix`` per timestamp.  The result holds the graph's two
    matrices, embeddings and states with one row per live (timestamp,
    node), and the batch's slot table of each (timestamp, universe
    position)'s row, or -1 while the node is absent; the mappings read rows
    through it.
    """
    _check_fits(model, cdg_)
    stream = _stream(cdg_)
    batch = _Batch([stream], cdg_.dim, model.sgnn.layers)
    h, _ = _encode(model, batch)
    q, _ = _temporal(model, batch, h)
    position = {v: p for p, v in enumerate(stream[0])}
    return [
        StateMatrix(t, _Rows(h, slots, position), _Rows(q, slots, position))
        for t, slots in zip(timestamps(cdg_), batch.slot_table[0])
    ]


def symbolic_state_trajectories(cdgs, dictionary=None, layers=None):
    """Symbolic embedding and state trajectories, jointly refined.

    Returns (hidden, states): per graph, node id -> list over timestamps of
    color id / state id, with None at timestamps where the node is absent.
    A state is the fresh embedding at (re)appearance and otherwise the
    injective pairing of the previous state with the current embedding.
    """
    if dictionary is None:
        dictionary = ColorDictionary()
    prev_q = {}

    def ids_at(union):
        colors = _colors_at(union, union.order, dictionary, layers)
        hidden = [None if c == BOTTOM else c for c in colors.values()]
        for p, h in enumerate(hidden):
            prev = prev_q.get(p)
            prev_q[p] = h if h is None or prev is None else dictionary.id_of(("q", prev, h))
        return hidden, list(prev_q.values())

    universes, steps = _joint_timeline(cdgs)
    return tuple(
        [{v: list(tr) for v, tr in m.items()} for m in _by_graph(trajs, universes)]
        for trajs in _joint_trajectories(steps, ids_at)
    )


def readout(state_matrix, model):
    """Per-node outputs; absent nodes map to the designated zero output."""
    states = state_matrix.state
    out = {v: np.zeros(model.out_dim) for v in states}
    live = [v for v, q in states.items() if q is not None]
    if live:
        y, _ = model.readout_net.forward(np.stack([np.asarray(states[v]) for v in live]))
        out.update(zip(live, y))
    return out


# ---------------------------------------------------------------------------
# Training targets


@dataclass
class CdynTarget:
    """Function table from (timestamp index, trajectory prefix) to outputs.

    Keys are signature-id prefixes of tree trajectories, so the table is
    well defined on tree-equivalence classes by construction;
    ``from_entries`` raises when two equal prefixes get different values.
    Targets are bound to the corpus (and its ordering) whose trajectory
    session minted the signature ids.
    """

    output_dim: int
    table: dict = field(default_factory=dict)
    default: tuple | None = None

    def value_for(self, t_index, prefix):
        key = (t_index, tuple(prefix))
        if key in self.table:
            return self.table[key]
        if self.default is not None:
            return self.default
        raise TargetUndefinedError(f"target undefined at timestamp {t_index} for prefix {prefix}")

    @classmethod
    def from_entries(cls, entries, output_dim, default=None):
        """The table of ``(timestamp index, prefix, value)`` entries.

        A broken rule raises ``MalformedTargetError`` naming the field as
        ``from_json`` reads it: ``output_dim``, ``default``, ``entries[k].t``,
        ``entries[k].prefix`` or ``entries[k].value``.
        """
        ok = _is_int(output_dim) and output_dim > 0
        _require(ok, "output_dim", "a positive integer", output_dim)
        if default is not None:
            default = _vector(default, output_dim, "default")
        table = {}
        for k, (t_index, prefix, value) in enumerate(entries):
            at = f"entries[{k}]"
            _require(_is_int(t_index) and t_index >= 0, f"{at}.t", "an integer >= 0", t_index)
            ok = isinstance(prefix, (list, tuple)) and all(map(_is_int, prefix))
            _require(ok, f"{at}.prefix", "a list of integers", prefix)
            key = (int(t_index), tuple(map(int, prefix)))
            value = _vector(value, output_dim, f"{at}.value")
            if key in table and table[key] != value:
                raise TargetNotCutRespectingError(
                    f"equal trajectory prefixes at timestamp {t_index} map to "
                    f"{table[key]} and {value}"
                )
            table[key] = value
        return cls(int(output_dim), table, default)

    @classmethod
    def prefix_indicator(cls, corpus, anchor_graph, anchor_node):
        """Indicator of the anchor node's trajectory-prefix class, per timestamp."""
        return cls._indicator(cut_trajectories(list(corpus))[anchor_graph][anchor_node].sigs)

    @classmethod
    def _indicator(cls, anchor):
        """Indicator of the prefixes of the signature trajectory ``anchor``, per timestamp."""
        entries = [(i, anchor[: i + 1], (1.0,)) for i in range(len(anchor))]
        return cls.from_entries(entries, 1, default=(0.0,))

    def to_json(self):
        entries = [
            {"t": t, "prefix": list(prefix), "value": list(value)}
            for (t, prefix), value in sorted(self.table.items())
        ]
        default = list(self.default) if self.default is not None else None
        obj = {"output_dim": self.output_dim, "default": default, "entries": entries}
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; a schema break raises ``MalformedTargetError``."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedTargetError(None, f"invalid JSON ({exc})") from None
        _require(isinstance(obj, dict), None, "a JSON object", obj)
        dim, entries = _field(obj, "output_dim"), _field(obj, "entries")
        rows = []
        for k, e in enumerate(_require(isinstance(entries, list), "entries", "a list", entries)):
            _require(isinstance(e, dict), f"entries[{k}]", "a JSON object", e)
            rows.append([_field(e, name, f"entries[{k}]") for name in ("t", "prefix", "value")])
        return cls.from_entries(rows, dim, obj.get("default"))


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _vector(x, dim, field):
    """``x`` as ``dim`` finite floats; the bound also rejects ints too large for a float."""
    ok = isinstance(x, (list, tuple)) and len(x) == dim and all(
        isinstance(c, numbers.Real) and not isinstance(c, bool) and abs(c) <= sys.float_info.max
        for c in x
    )
    return tuple(map(float, _require(ok, field, f"a list of {dim} finite numbers", x)))


def _require(ok, field, expected, value):
    if not ok:
        raise MalformedTargetError(field, f"expected {expected}, got {value!r}")
    return value


def _field(obj, name, within=None):
    field = name if within is None else f"{within}.{name}"
    if name not in obj:
        raise MalformedTargetError(field, "missing")
    return obj[name]


# ---------------------------------------------------------------------------
# Loss, gradients, training


def _corpus_batch(model, corpus, target, prefixes):
    corpus = list(corpus)
    for g in corpus:
        _check_fits(model, g)
    if prefixes is None:
        prefixes = cut_trajectories(corpus)
    return _Batch([_stream(g) for g in corpus], model.attr_dim, model.sgnn.layers, target, prefixes)


def training_loss(model, corpus, target, prefixes=None):
    """Mean squared error of readout outputs over all live (time, node) pairs."""
    return _loss(model, _corpus_batch(model, corpus, target, prefixes))


def loss_and_gradients(model, corpus, target, prefixes=None):
    """Loss plus accumulated parameter gradients via backpropagation."""
    return _loss(model, _corpus_batch(model, corpus, target, prefixes), with_grads=True)


@dataclass
class TrainResult:
    model: CgnnModel
    final_loss: float
    steps_run: int
    initial_loss: float


def train_to_target(corpus, target, sgnn, temporal, steps=2000, lr=0.5, seed=0, goal=None):
    """Full-batch gradient descent with a fixed step size.

    Stops early once ``goal`` (an MSE threshold) is reached.  The target
    must resolve for every live (timestamp, node) prefix in the corpus;
    ``TargetUndefinedError`` is raised before the first step otherwise.
    ``steps`` below 0, an ``lr`` that is not positive and finite and a
    ``goal`` given and not positive raise ``InvalidBoundError``.
    """
    return _train_stack(corpus, target, sgnn, temporal, steps, lr, (seed,), goal)[0]


def _train_stack(corpus, target, sgnn, temporal, steps, lr, seeds, goal, prefixes=None):
    """``train_to_target`` for every seed of ``seeds`` at once: one ``TrainResult`` per seed.

    The seeds' models form one stack, so a step is one forward and one
    backward pass for all of them.  A model leaves the stack at the step
    that reaches ``goal`` and is never updated again, so each model takes
    exactly the steps, losses and parameters of its own run.
    ``prefixes`` are the corpus's ``cut_trajectories``, if already made.
    """
    if steps < 0:
        raise InvalidBoundError(f"steps must be at least 0, got {steps}")
    if not lr > 0:
        raise InvalidBoundError(f"lr must be positive, got {lr}")
    if lr == math.inf:
        raise InvalidBoundError(f"lr must be finite, got {lr}")
    if goal is not None and not goal > 0:
        raise InvalidBoundError(f"goal must be positive, got {goal}")
    corpus = list(corpus)
    check_comparable(corpus)
    models = [
        CgnnModel.init(
            corpus[0].dim, target.output_dim, sgnn, temporal,
            n_intervals=len(corpus[0].events), seed=seed,
        )
        for seed in seeds
    ]
    batch = _corpus_batch(models[0], corpus, target, prefixes)
    stack, flat, gflat, grads = _flatten(models)
    initial = _loss(stack, batch)
    final, updates, live = initial.copy(), np.zeros(len(models), dtype=int), np.arange(len(models))
    for _ in range(steps):
        gflat.fill(0.0)
        loss, _ = _loss(stack, batch, True, grads)
        step = gflat
        if goal is not None and (met := loss <= goal).any():
            final[live[met]] = loss[met]
            live, step = live[~met], gflat[~met]
            if not len(live):
                break
            # the models that met the goal keep the rows of the old arrays
            stack, flat, gflat, grads = _flatten([models[i] for i in live])
        flat -= lr * step
        updates[live] += 1
    else:
        final[live] = _loss(stack, batch)
    return [
        TrainResult(model, float(f), int(n), float(i))
        for model, f, n, i in zip(models, final, updates, initial)
    ]


def _flatten(models):
    """Stack ``models``: rebind each one's parameters to views of its row of one array.

    Returns (stack, parameter array, gradient array, gradient views).  The
    arrays are (models, parameters), each row in ``parameters()`` order;
    ``stack`` is a model whose every parameter is the view of all rows at
    once, with a leading model axis, and the gradient views are its
    gradients by name.  Each model's own arrays view its row, so
    ``model_params_json`` reads them as before.
    """
    rows = [model._slots() for model in models]
    flat = np.array([np.concatenate([holder[key].ravel() for _, holder, key in s]) for s in rows])
    gflat = np.zeros_like(flat)
    stack = _skeleton(models[0])
    grads, at = {}, 0
    for j, (name, holder, key) in enumerate(stack._slots()):
        shape, end = holder[key].shape, at + holder[key].size
        holder[key] = flat[:, at:end].reshape(-1, *shape)
        grads[name] = gflat[:, at:end].reshape(-1, *shape)
        for slots, row in zip(rows, flat):
            _, own, own_key = slots[j]
            own[own_key] = row[at:end].reshape(shape)
        at = end
    return stack, flat, gflat, grads


def _skeleton(model):
    """``model`` with containers of its own, so that rebinding a parameter leaves ``model`` alone."""
    nets = lambda ms: [Mlp(**vars(m)) for m in ms]
    return replace(
        model, aggr=nets(model.aggr), comb=nets(model.comb), cells=nets(model.cells),
        readout_net=Mlp(**vars(model.readout_net)),
        adapter=None if model.adapter is None else list(model.adapter),
    )


GRAD_STEP = 1e-5


def gradient_check(probe, sgnn, temporal, n_samples=25, seed=0):
    """Max relative error between analytic and central-difference gradients.

    The central difference steps each sampled parameter by ``GRAD_STEP``.
    The loss is taken against a seeded random target that is constant on
    trajectory-prefix classes.  A NaN error anywhere makes the result NaN,
    so it fails every tolerance.  ``n_samples`` below 1 raises
    ``InvalidBoundError`` and a probe with no live node ``EmptyInputError``:
    a check of no parameter, or of a loss that is 0 whatever the
    parameters, would pass vacuously.
    """
    if n_samples < 1:
        raise InvalidBoundError(f"samples must be at least 1, got {n_samples}")
    corpus = [probe]
    prefixes = cut_trajectories(corpus)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    keys = {
        (i, traj.sigs[: i + 1])
        for traj in prefixes[0].values()
        for i, sig in enumerate(traj.sigs)
        if sig
    }
    if not keys:
        raise EmptyInputError("the probe has no live node, so its loss has no gradient")
    entries = [(i, prefix, (float(rng.uniform(-1.0, 1.0)),)) for i, prefix in sorted(keys)]
    target = CdynTarget.from_entries(entries, 1)
    model = CgnnModel.init(
        probe.dim, 1, sgnn, temporal, n_intervals=len(probe.events), seed=seed
    )
    batch = _corpus_batch(model, corpus, target, prefixes)
    _loss_value, grads = _loss(model, batch, with_grads=True)
    coords = [(name, arr, i) for name, arr in model.parameters() for i in range(arr.size)]
    picks = rng.choice(len(coords), size=min(n_samples, len(coords)), replace=False)
    errors = []
    for pick in sorted(picks):
        name, arr, i = coords[pick]
        old = arr.flat[i]
        arr.flat[i] = old + GRAD_STEP
        up = _loss(model, batch)
        arr.flat[i] = old - GRAD_STEP
        down = _loss(model, batch)
        arr.flat[i] = old
        numeric = (up - down) / (2.0 * GRAD_STEP)
        analytic = grads[name].flat[i]
        errors.append(abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric)))
    return float(np.max(errors))


def model_params_json(model):
    """Shape-tagged flat-array JSON of all trainable parameters."""
    obj = {
        name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        for name, arr in model.parameters()
    }
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Expressivity certification


@dataclass
class ExpressivityReport:
    """Symbolic-exactness and numeric-coarseness results over a pair corpus."""

    instances: int = 0
    symbolic_exact: int = 0
    symbolic_mismatches: list = field(default_factory=list)
    numeric_violations: list = field(default_factory=list)

    @property
    def ok(self):
        return (
            self.symbolic_exact == self.instances
            and not self.symbolic_mismatches
            and not self.numeric_violations
        )


def expressivity_check(
    pairs,
    seeds=5,
    layers=3,
    temporal_mode=PER_INTERVAL,
    base_seed=0,
):
    """Compare color refinement against symbolic states and the network, per prefix.

    For every pair and every prefix length: the partition of nodes by
    symbolic state prefix must equal the partition by color-trajectory
    prefix, and no randomly initialized numeric model may separate two
    nodes whose color prefixes agree (their state prefixes must be
    bitwise equal).  The numeric models use the default ``hidden_dim`` and
    ``state_dim``.  ``seeds`` below 1 raises ``InvalidBoundError``, since
    then no numeric model would be checked; so does a ``layers`` that is
    None or below 1.
    """
    if not pairs:
        raise EmptyInputError("no pairs given")
    if seeds < 1:
        raise InvalidBoundError(f"seeds must be at least 1, got {seeds}")
    if layers is None or layers < 1:
        raise InvalidBoundError(f"layers must be at least 1, got {layers}")
    report = ExpressivityReport()
    sg, tc = SgnnConfig(layers=layers), TemporalConfig(mode=temporal_mode)
    for idx, (g1, g2) in enumerate(pairs):
        # Hidden ids are the stable colors, with None where color 0 marks absence.
        colors, states = (
            {(gi, v): tuple(tr) for gi in (0, 1) for v, tr in trajs[gi].items()}
            for trajs in symbolic_state_trajectories([g1, g2])
        )
        n_t = len(g1.events) + 1
        exact = all(
            partition_of({t: tr[: i + 1] for t, tr in colors.items()})
            == partition_of({t: tr[: i + 1] for t, tr in states.items()})
            for i in range(n_t)
        )
        if exact:
            report.symbolic_exact += 1
        else:
            report.symbolic_mismatches.append({"pair": idx})
        # nodes sharing a color prefix, per prefix length; a singleton can't be separated
        groups = []
        for i in range(n_t):
            by_prefix = {}
            for tagged, tr in colors.items():
                by_prefix.setdefault(tr[: i + 1], []).append(tagged)
            groups.append([members for members in by_prefix.values() if len(members) > 1])
        streams = [_stream(g) for g in (g1, g2)]
        batch = _Batch(streams, g1.dim, layers)
        places = [((gi, streams[gi][0][p]), i) for gi, i, p in batch.slots.T.tolist()]
        for s in range(seeds):
            model = CgnnModel.init(
                g1.dim, 1, sg, tc, n_intervals=len(g1.events), seed=base_seed + s
            )
            q, _ = _temporal(model, batch, _encode(model, batch)[0])
            numeric = {tagged: [None] * n_t for tagged in colors}
            for (tagged, i), q_k in zip(places, q):
                numeric[tagged][i] = q_k.tobytes()
            for i, prefix_groups in enumerate(groups):
                for members in prefix_groups:
                    first = numeric[members[0]][: i + 1]
                    for other in members[1:]:
                        if numeric[other][: i + 1] != first:
                            report.numeric_violations.append({
                                "pair": idx, "seed": base_seed + s, "prefix_length": i + 1,
                                "nodes": [list(members[0]), list(other)],
                            })
        report.instances += 1
    return report

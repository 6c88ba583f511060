"""Exhaustive isomorphism oracle for small dynamic graphs.

Two dynamic graphs are isomorphic when a single bijection between their
node universes restricts, at every timestamp, to a bijection of the live
node sets that preserves edges and attributes.  In ``identity`` mode
attributes must match exactly; in ``renaming`` mode the map only needs to
induce a consistent attribute bijection per timestamp.

The search is exponential and guarded to universes of at most 8 nodes.
Candidate images are restricted to nodes with identical cheap invariants
(presence pattern, per-timestamp degree, and in identity mode attributes),
and partial assignments are pruned against the edge conditions, so typical
instances finish far below the worst case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cdg import attr_bytes, edge_key, snapshots, timestamps, universe
from .errors import TimestampMismatchError, TooLargeError

IDENTITY = "identity"
RENAMING = "renaming"

SEARCH_GUARD = 8


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    mapping: dict | None = None


def check_isomorphism_witness(g1, g2, mapping, mode=IDENTITY):
    """Check that ``mapping`` satisfies every per-timestamp condition."""
    if mode not in (IDENTITY, RENAMING):
        raise ValueError(f"unknown attribute mode {mode!r}")
    u1, u2 = universe(g1), universe(g2)
    if set(mapping) != set(u1) or set(mapping.values()) != set(u2):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for s1, s2 in zip(snapshots(g1), snapshots(g2)):
        if {mapping[v] for v in s1.nodes} != set(s2.nodes):
            return False
        mapped_edges = {edge_key(mapping[a], mapping[b]) for a, b in s1.edges}
        if mapped_edges != set(s2.edges):
            return False
        if mode == IDENTITY:
            for v, a in s1.nodes.items():
                if attr_bytes(a) != attr_bytes(s2.nodes[mapping[v]]):
                    return False
            for (a, b), w in s1.edges.items():
                if attr_bytes(w) != attr_bytes(s2.edges[edge_key(mapping[a], mapping[b])]):
                    return False
        else:
            rename = {}
            values = {}
            pairs = [(a, s2.nodes[mapping[v]]) for v, a in s1.nodes.items()]
            pairs += [
                (w, s2.edges[edge_key(mapping[a], mapping[b])]) for (a, b), w in s1.edges.items()
            ]
            for src, dst in pairs:
                sk, dk = attr_bytes(src), attr_bytes(dst)
                if rename.setdefault(sk, dk) != dk:
                    return False
                if values.setdefault(dk, sk) != sk:
                    return False
    return True


def _trajectories(g, mode):
    """Replay ``g`` once into per-node and per-pair trajectories.

    A node's entry at each timestamp is ``(degree, mark)`` and a pair's is
    its ``mark``, or None while the node or edge is absent; pairs that are
    never an edge are left out.  The mark is the attribute's bytes in
    identity mode and a constant in renaming mode.
    """
    mark = attr_bytes if mode == IDENTITY else (lambda a: b"")
    snaps = snapshots(g)
    degrees = [Counter(v for pair in s.edges for v in pair) for s in snaps]
    nodes = {
        v: tuple((d[v], mark(s.nodes[v])) if v in s.nodes else None for s, d in zip(snaps, degrees))
        for v in universe(g)
    }
    edges = {}
    for i, s in enumerate(snaps):
        for pair, a in s.edges.items():
            edges.setdefault(pair, [None] * len(snaps))[i] = mark(a)
    return nodes, edges


def brute_force_isomorphic(g1, g2, mode=IDENTITY):
    """Search for a witness bijection; exact but exponential.

    Raises ``TooLargeError`` beyond the 8-node guard and
    ``TimestampMismatchError`` when the streams have different lengths.
    """
    if mode not in (IDENTITY, RENAMING):
        raise ValueError(f"unknown attribute mode {mode!r}")
    u1, u2 = universe(g1), universe(g2)
    if max(len(u1), len(u2)) > SEARCH_GUARD:
        raise TooLargeError(
            f"universe sizes {len(u1)}/{len(u2)} exceed the search guard {SEARCH_GUARD}"
        )
    if len(timestamps(g1)) != len(timestamps(g2)):
        raise TimestampMismatchError(
            f"timestamp counts differ: {len(timestamps(g1))} vs {len(timestamps(g2))}"
        )
    if len(u1) != len(u2):
        return IsoVerdict(False)
    nodes1, edges1 = _trajectories(g1, mode)
    nodes2, edges2 = _trajectories(g2, mode)
    if Counter(nodes1.values()) != Counter(nodes2.values()):
        return IsoVerdict(False)
    by_key = {}
    for v, k in nodes2.items():
        by_key.setdefault(k, []).append(v)

    order = sorted(u1, key=lambda v: (len(by_key[nodes1[v]]), v))
    mapping = {}

    def _search(pos):
        if pos == len(order):
            return check_isomorphism_witness(g1, g2, mapping, mode)
        v = order[pos]
        for w in by_key[nodes1[v]]:
            if w in mapping.values() or any(
                edges1.get(edge_key(v, p)) != edges2.get(edge_key(w, q)) for p, q in mapping.items()
            ):
                continue
            mapping[v] = w
            if _search(pos + 1):
                return True
            del mapping[v]
        return False

    if _search(0):
        return IsoVerdict(True, dict(mapping))
    return IsoVerdict(False)

"""Connected components of snapshots and component-level matching."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cdg import adjacency
from .wl import ColorDictionary, awl_stable, merged_snapshot


@dataclass(frozen=True)
class ComponentPartition:
    """Components as sorted node tuples, ordered by smallest member."""

    components: tuple
    index: dict


def components(snapshot):
    adj = adjacency(snapshot)
    index, comps = {}, []
    for v in sorted(adj):
        if v in index:
            continue
        index[v] = len(comps)
        comp, todo = [v], [v]
        while todo:
            for u, _ in adj[todo.pop()]:
                if u not in index:
                    index[u] = len(comps)
                    comp.append(u)
                    todo.append(u)
        comps.append(tuple(sorted(comp)))
    return ComponentPartition(tuple(comps), index)


def is_disconnected(snapshot):
    """True when the snapshot has two or more components; empty counts as connected."""
    return len(components(snapshot).components) >= 2


@dataclass(frozen=True)
class ComponentMatchVerdict:
    """Two granularities of component matching under a joint stable coloring.

    ``class_counts_match``: grouping components by their set of stable
    colors, total node counts agree per group.  ``component_counts_match``:
    grouping by the exact color multiset, component counts agree per group
    (this implies matching per-component sizes and yields a bijection).
    """

    class_counts_match: bool
    component_counts_match: bool
    classes: tuple
    bijection: tuple | None = None


def match_components(s1, s2):
    """Match components of two snapshots under one joint stable coloring."""
    universes = [sorted(s1.nodes), sorted(s2.nodes)]
    snap, joint = merged_snapshot([s1, s2], universes)
    colors, _ = awl_stable(snap, joint, ColorDictionary())
    parts = [components(s1), components(s2)]

    def comp_key(gi, comp):
        return tuple(sorted(colors[(gi, v)] for v in comp))

    keyed = [
        [(comp_key(gi, comp), comp) for comp in parts[gi].components] for gi in (0, 1)
    ]
    multiset_counts = [Counter(k for k, _ in side) for side in keyed]
    component_counts_match = multiset_counts[0] == multiset_counts[1]

    class_nodes = [Counter(), Counter()]
    for gi in (0, 1):
        for key, comp in keyed[gi]:
            class_nodes[gi][tuple(sorted(set(key)))] += len(comp)
    class_counts_match = class_nodes[0] == class_nodes[1]

    class_keys = sorted(set(class_nodes[0]) | set(class_nodes[1]))
    classes = tuple(
        {
            "colors": list(key),
            "nodes_a": class_nodes[0].get(key, 0),
            "nodes_b": class_nodes[1].get(key, 0),
        }
        for key in class_keys
    )

    bijection = None
    if component_counts_match:
        by_key = {}
        for gi in (0, 1):
            for pos, (key, comp) in enumerate(keyed[gi]):
                by_key.setdefault(key, ([], []))[gi].append(pos)
        pairs = []
        for key in sorted(by_key):
            side_a, side_b = by_key[key]
            pairs.extend(zip(side_a, side_b))
        bijection = tuple(sorted(pairs))
    return ComponentMatchVerdict(
        class_counts_match, component_counts_match, classes, bijection
    )

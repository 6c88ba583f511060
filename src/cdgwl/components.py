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
    keys = [
        [tuple(sorted(colors[(gi, v)] for v in comp)) for comp in components(s).components]
        for gi, s in enumerate((s1, s2))
    ]
    component_counts_match = Counter(keys[0]) == Counter(keys[1])

    class_nodes = [Counter(), Counter()]
    for counts, side in zip(class_nodes, keys):
        for key in side:
            counts[tuple(sorted(set(key)))] += len(key)
    classes = tuple(
        {
            "colors": list(key),
            "nodes_a": class_nodes[0][key],
            "nodes_b": class_nodes[1][key],
        }
        for key in sorted(set(class_nodes[0]) | set(class_nodes[1]))
    )

    bijection = None
    if component_counts_match:
        # Equal multisets: the i-th component of each key on one side pairs
        # with the i-th of that key on the other.
        ranked = [sorted(range(len(side)), key=side.__getitem__) for side in keys]
        bijection = tuple(sorted(zip(*ranked)))
    return ComponentMatchVerdict(
        class_nodes[0] == class_nodes[1], component_counts_match, classes, bijection
    )

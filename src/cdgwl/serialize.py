"""JSON-lines wire format for dynamic graphs.

Line 1 holds the start graph, every further line one event:

    {"type":"start","d":1,"nodes":[{"id":"a","attr":[1.0]}],"edges":[{"u":"a","v":"b","attr":[0.5]}]}
    {"type":"event","t":1.0,"item":"node","key":"c","kind":"add","attr":[1.0]}
    {"type":"event","t":2.0,"item":"edge","key":["a","c"],"kind":"delete"}

The start graph is the state at timestamp 0.0.  Floats round-trip exactly
(shortest-repr encoding), and node and edge lists are emitted in sorted
order, so ``cdg_from_jsonl(cdg_to_jsonl(g)) == g`` for every ``Cdg`` and
serialization is byte-stable.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .cdg import EDGE, EVENT_KINDS, ITEM_KINDS, NODE, Cdg, Event, StartGraph
from .errors import CdgError, MalformedStreamError


def cdg_to_jsonl(cdg) -> str:
    start = {
        "type": "start",
        "d": cdg.dim,
        "nodes": [{"id": v, "attr": list(a)} for v, a in sorted(cdg.start.nodes.items())],
        "edges": [
            {"u": u, "v": v, "attr": list(a)} for (u, v), a in sorted(cdg.start.edges.items())
        ],
    }
    lines = [json.dumps(start, separators=(",", ":"))]
    for e in cdg.events:
        obj = {
            "type": "event",
            "t": e.time,
            "item": e.item,
            "key": list(e.key) if e.item == EDGE else e.key,
            "kind": e.kind,
        }
        if e.attr is not None:
            obj["attr"] = list(e.attr)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return "\n".join(lines) + "\n"


_NUMBER = ("a number", (int, float))
_ID = ("a string or an integer", (str, int))
_LIST = ("a list", list)
_OBJECT = ("an object", dict)


def _typed(line, field, value, expected):
    name, types = expected
    if isinstance(value, bool) or not isinstance(value, types):
        raise MalformedStreamError(line, field, f"expected {name}, got {json.dumps(value)}")
    return value


def _field(obj, line, field, expected, choices=None):
    if field not in obj:
        raise MalformedStreamError(line, field, "missing")
    value = _typed(line, field, obj[field], expected)
    if choices is not None and value not in choices:
        raise MalformedStreamError(line, field, f"expected one of {choices}, got {value!r}")
    return value


def _attr(obj, line):
    return tuple(_typed(line, "attr", x, _NUMBER) for x in _field(obj, line, "attr", _LIST))


def cdg_from_jsonl(text) -> Cdg:
    """Parse the wire format; ``MalformedStreamError`` names the bad line and field.

    Node ids are strings or integers, and one stream uses only one of the two.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MalformedStreamError(1, None, "empty stream")
    id_types = set()

    def node_id(line, field, value):
        id_types.add(type(value))
        if len(id_types) > 1:
            raise MalformedStreamError(line, field, "node ids mix strings and integers")
        return value

    objs = []
    for n, ln in lines:
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise MalformedStreamError(n, None, f"invalid JSON ({exc.msg})") from None
        objs.append((n, _typed(n, None, obj, ("a JSON object", dict))))
    n, head = objs[0]
    if head.get("type") != "start":
        raise MalformedStreamError(n, "type", "the first line must have type 'start'")
    dim = _field(head, n, "d", ("a positive integer", int))
    if dim < 1:
        raise MalformedStreamError(n, "d", f"expected a positive integer, got {dim}")
    nodes, edges = {}, {}
    for node in _typed(n, "nodes", head.get("nodes", []), _LIST):
        _typed(n, "nodes", node, _OBJECT)
        nodes[node_id(n, "id", _field(node, n, "id", _ID))] = _attr(node, n)
    for edge in _typed(n, "edges", head.get("edges", []), _LIST):
        _typed(n, "edges", edge, _OBJECT)
        ends = tuple(node_id(n, f, _field(edge, n, f, _ID)) for f in ("u", "v"))
        edges[ends] = _attr(edge, n)
    try:
        start = StartGraph(nodes, edges)
    except ValueError as exc:
        raise MalformedStreamError(n, None, str(exc)) from None
    events = []
    for n, obj in objs[1:]:
        if obj.get("type") != "event":
            raise MalformedStreamError(n, "type", f"expected 'event', got {obj.get('type')!r}")
        t = _field(obj, n, "t", _NUMBER)
        item = _field(obj, n, "item", ("a string", str), ITEM_KINDS)
        kind = _field(obj, n, "kind", ("a string", str), EVENT_KINDS)
        if item == NODE:
            key = node_id(n, "key", _field(obj, n, "key", _ID))
        else:
            key = _field(obj, n, "key", ("a list of two node ids", list))
            if len(key) != 2:
                raise MalformedStreamError(n, "key", f"expected two node ids, got {len(key)}")
            key = tuple(node_id(n, "key", _typed(n, "key", k, _ID)) for k in key)
        attr = _attr(obj, n) if obj.get("attr") is not None else None
        try:
            events.append(Event(time=t, item=item, key=key, kind=kind, attr=attr))
        except ValueError as exc:
            raise MalformedStreamError(n, None, str(exc)) from None
    return Cdg(start=start, events=tuple(events), dim=dim)


def save_cdg(path, cdg):
    with open(path, "w") as fh:
        fh.write(cdg_to_jsonl(cdg))


@contextmanager
def _reading(path, malformed):
    """Yield the text of file ``path``; a ``CdgError`` raised in the block names the file.

    The file must be UTF-8, as JSON is; other bytes raise
    ``malformed(line, problem)``.
    """
    raw = Path(path).read_bytes()
    try:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise malformed(line, f"not UTF-8 ({exc.reason} at byte {exc.start})") from None
        yield text
    except CdgError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_cdg(path) -> Cdg:
    """Parse a stream file; a parse or validation error starts with the file's path."""
    with _reading(path, lambda line, problem: MalformedStreamError(line, None, problem)) as text:
        return cdg_from_jsonl(text)

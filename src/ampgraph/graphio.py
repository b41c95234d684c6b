"""Reading and writing graphs as JSON.

The on-disk form is a flat object with a vertex list and an edge list; the
multiplicity of an edge family is either a nonnegative integer or the string
"inf".  Serialisation is canonical: vertices keep their given order and
edges are emitted row-major in that order, so equal graphs produce byte
identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .graphs import OMEGA, AmpGraph, Mult


def _mult_to_json(m: Mult) -> Any:
    return "inf" if m is OMEGA else m


def _mult_from_json(raw: Any, where: str) -> Mult:
    if raw == "inf":
        return OMEGA
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValueError(f"multiplicity of {where} must be an integer or \"inf\", got {raw!r}")
    if raw < 0:
        raise ValueError(f"multiplicity of {where} must be nonnegative, got {raw}")
    return raw


def graph_to_dict(g: AmpGraph) -> dict:
    edges = [
        {"src": a, "dst": b, "mult": _mult_to_json(m)} for a, b, m in g.families()
    ]
    return {"vertices": list(g.vertices), "edges": edges}


def graph_from_dict(data: Any) -> AmpGraph:
    if not isinstance(data, dict):
        raise ValueError("graph document must be a JSON object")
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"graph document is missing the {exc.args[0]!r} key") from None
    if not isinstance(raw_vertices, list) or not all(isinstance(v, str) for v in raw_vertices):
        raise ValueError("\"vertices\" must be a list of strings")
    if len(set(raw_vertices)) != len(raw_vertices):
        dupes = sorted({v for v in raw_vertices if raw_vertices.count(v) > 1})
        raise ValueError(f"duplicate vertices: {dupes}")
    if not isinstance(raw_edges, list):
        raise ValueError("\"edges\" must be a list")
    known = set(raw_vertices)
    edges = []
    seen = set()
    for i, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise ValueError(f"edge #{i} must be an object")
        try:
            src, dst = item["src"], item["dst"]
        except KeyError as exc:
            raise ValueError(f"edge #{i} is missing the {exc.args[0]!r} key") from None
        for end in (src, dst):
            if not isinstance(end, str):
                raise ValueError(f"edge #{i} endpoints must be strings, got {end!r}")
            if end not in known:
                raise ValueError(f"edge #{i} refers to unknown vertex {end!r}")
        if (src, dst) in seen:
            raise ValueError(f"edge #{i} repeats the pair {src!r} -> {dst!r}")
        seen.add((src, dst))
        where = f"edge #{i} ({src!r} -> {dst!r})"
        edges.append((src, dst, _mult_from_json(item.get("mult", "inf"), where)))
    return AmpGraph(raw_vertices, edges)


def load_graph(path: str) -> AmpGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            # a document nested too deeply for the parser is refused like a malformed one
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return graph_from_dict(data)


def dump_graph(g: AmpGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_graph(g))
        fh.write("\n")


def dumps_graph(g: AmpGraph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True, separators=(",", ":"), ensure_ascii=True)

"""JSON persistence and DOT export.

Formats are strict on load (unknown or missing fields raise ParseError,
structural invariants are re-checked by the constructors) and canonical
on save: sorted keys, two-space indent, trailing newline, so that
save(load(f)) reproduces f byte for byte on files written by this
module.
"""

from __future__ import annotations

import json

from .codes import SlidingBlockCode
from .errors import ParseError
from .graph import LabeledGraph
from .shifts import SoficShift

# table key separators, the first one that occurs in no domain symbol
SEPARATORS = (",", ";", "|", "/", " ")


def _check_fields(obj, what, required, optional=()):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}",
                         field=what)
    for name in required:
        if name not in obj:
            raise ParseError(f"missing field {name!r}", field=what)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r}", field=what)


def _string_list(value, what):
    if not isinstance(value, list) or any(not isinstance(s, str) for s in value):
        raise ParseError("expected a list of strings", field=what)
    return value


def _string_table(value, what):
    if not isinstance(value, dict) or any(not isinstance(s, str)
                                          for s in value.values()):
        raise ParseError("expected an object with string values", field=what)
    return value


# -- graphs ----------------------------------------------------------------


def graph_to_json(g):
    return {
        "alphabet": list(g.alphabet),
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "src": e.src, "dst": e.dst, "label": e.label}
            for e in g.edges
        ],
    }


def graph_from_json(obj):
    _check_fields(obj, "graph", ("alphabet", "vertices", "edges"))
    alphabet = _string_list(obj["alphabet"], "alphabet")
    vertices = _string_list(obj["vertices"], "vertices")
    if not isinstance(obj["edges"], list):
        raise ParseError("expected a list", field="edges")
    edges = []
    for entry in obj["edges"]:
        _check_fields(entry, "edge", ("id", "src", "dst", "label"))
        for name in ("id", "src", "dst", "label"):
            if not isinstance(entry[name], str):
                raise ParseError("expected a string", field=f"edge.{name}")
        edges.append((entry["id"], entry["src"], entry["dst"], entry["label"]))
    return LabeledGraph.make(alphabet, vertices, edges)


# -- shifts ----------------------------------------------------------------


def shift_to_json(x):
    return {"kind": "sofic", "presentation": graph_to_json(x.presentation)}


def shift_from_json(obj):
    _check_fields(obj, "shift", ("kind", "presentation"))
    if obj["kind"] != "sofic":
        raise ParseError(f"unsupported kind {obj['kind']!r}", field="kind")
    return SoficShift.from_graph(graph_from_json(obj["presentation"]))


# -- codes -----------------------------------------------------------------
# Table keys concatenate the window's symbols; a separator is declared
# whenever some domain symbol is longer than one character, otherwise
# each character is one symbol.


def code_to_json(code, embed_domain=False):
    alphabet = code.domain.alphabet
    separator = None
    if any(len(s) > 1 for s in alphabet):
        separator = next((sep for sep in SEPARATORS
                          if not any(sep in s for s in alphabet)), None)
        if separator is None:
            raise ParseError("every table key separator occurs in a domain "
                             "symbol", field="separator")
    join = separator or ""
    out = {
        "memory": code.memory,
        "anticipation": code.anticipation,
        "table": {join.join(k): v for k, v in sorted(code.table.items())},
    }
    if separator is not None:
        out["separator"] = separator
    if tuple(code.codomain_alphabet) != tuple(sorted(set(code.table.values()))):
        out["codomain_alphabet"] = list(code.codomain_alphabet)
    if embed_domain:
        out["domain"] = shift_to_json(code.domain)
    return out


def code_from_json(obj, domain=None):
    _check_fields(obj, "code", ("memory", "anticipation", "table"),
                  ("separator", "codomain_alphabet", "domain"))
    if domain is None:
        if "domain" not in obj:
            raise ParseError("no domain shift given and none embedded",
                             field="domain")
        domain = shift_from_json(obj["domain"])
    for name in ("memory", "anticipation"):
        if not isinstance(obj[name], int) or isinstance(obj[name], bool):
            raise ParseError("expected an integer", field=name)
    table = _string_table(obj["table"], "table")
    separator = obj.get("separator")
    if separator is not None and (not isinstance(separator, str) or not separator):
        raise ParseError("expected a nonempty string", field="separator")
    table = {tuple(key.split(separator)) if separator else tuple(key): value
             for key, value in table.items()}
    codomain = obj.get("codomain_alphabet")
    if codomain is not None:
        codomain = _string_list(codomain, "codomain_alphabet")
    return SlidingBlockCode.make(domain, obj["memory"], obj["anticipation"],
                                 table, codomain)


# -- files -----------------------------------------------------------------


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.loads(handle.read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}",
                         field=str(path)) from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(str(exc), field=str(path)) from exc


def save_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def load_graph(path):
    return graph_from_json(load_json(path))


def load_shift(path):
    return shift_from_json(load_json(path))


def load_code(path, domain=None):
    return code_from_json(load_json(path), domain)


# -- DOT export --------------------------------------------------------------


def graph_to_dot(g):
    def q(text):  # quoted, with backslashes and quotes escaped
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = ["digraph shift {", "  rankdir=LR;"]
    for v in g.vertices:
        lines.append(f"  {q(v)};")
    for e in g.edges:
        lines.append(f"  {q(e.src)} -> {q(e.dst)} [label={q(e.label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

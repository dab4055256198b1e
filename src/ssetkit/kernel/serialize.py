"""On-disk formats for simplicial sets (.sset) and maps (.smap).

Files are JSON with sorted keys and a fixed layout, so save/load round-trips
are byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .simplex import Simplex
from .sset import FinSSet, SMap, SSetError

PathLike = Union[str, Path]


def sset_to_dict(x: FinSSet) -> dict:
    return {
        "dim_bound": "exact" if x.dim_bound is None else x.dim_bound,
        "cells": {str(n): list(level) for n, level in enumerate(x.cells)},
        "faces": {
            c: [{"degen": list(f.word), "base": f.base} for f in fs]
            for c, fs in sorted(x.faces.items())
            if fs
        },
    }


def _malformed(shape: str) -> SSetError:
    return SSetError(f"malformed file: expected {shape}")


def _lists_of(d, item: type) -> bool:
    return isinstance(d, dict) and all(
        isinstance(v, list) and all(isinstance(i, item) for i in v) for v in d.values()
    )


def _simplex(f) -> Simplex:
    degen = f.get("degen") if isinstance(f, dict) else None
    if not (isinstance(degen, list) and all(type(i) is int for i in degen)
            and isinstance(f.get("base"), str)):
        raise _malformed('a simplex {"degen": [ints], "base": name}')
    return Simplex(tuple(degen), f["base"])


def sset_from_dict(data: dict) -> FinSSet:
    """The simplicial set of a parsed .sset file; ``SSetError`` when ``data``
    does not have the shape of one."""
    if not (isinstance(data, dict) and _lists_of(data.get("cells", {}), str)
            and _lists_of(data.get("faces", {}), object)
            and type(data.get("dim_bound", "exact")) in (int, str)):
        raise _malformed('{"cells": {level: [names]}, "faces": {name: [simplices]}}')
    bound = data.get("dim_bound", "exact")
    dim_bound = None if bound == "exact" else int(bound)
    cells = {int(n): tuple(level) for n, level in data.get("cells", {}).items()}
    if any(n < 0 for n in cells):
        raise _malformed("cell levels >= 0")
    faces = {c: tuple(map(_simplex, fs)) for c, fs in data.get("faces", {}).items()}
    return FinSSet.make(cells, faces, dim_bound)


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def save_sset(x: FinSSet, path: PathLike) -> None:
    Path(path).write_text(dumps(sset_to_dict(x)))


def load_sset(path: PathLike) -> FinSSet:
    x = sset_from_dict(json.loads(Path(path).read_text()))
    x.assert_valid()
    return x


def smap_to_dict(m: SMap, source_path: str, target_path: str) -> dict:
    return {
        "source": source_path,
        "target": target_path,
        "assignment": {
            c: {"degen": list(s.word), "base": s.base}
            for c, s in sorted(m.assignment.items())
        },
    }


def save_smap(m: SMap, path: PathLike, source_path: str, target_path: str) -> None:
    Path(path).write_text(dumps(smap_to_dict(m, source_path, target_path)))


def load_smap(path: PathLike) -> SMap:
    path = Path(path)
    data = json.loads(path.read_text())
    if not (isinstance(data, dict) and isinstance(data.get("source"), str)
            and isinstance(data.get("target"), str) and isinstance(data.get("assignment"), dict)):
        raise _malformed('{"source": path, "target": path, "assignment": {name: simplex}}')
    src = load_sset(path.parent / data["source"])
    tgt = load_sset(path.parent / data["target"])
    assign = {c: _simplex(s) for c, s in data["assignment"].items()}
    m = SMap(src, tgt, assign)
    m.assert_valid()
    return m

"""Plain-text formats: parameter files, point files, and DOT snapshots.

Parameter files hold one ``KEY value`` pair per line, the keys being
``RunParams`` field names in upper case; ``#`` starts a comment and
blank lines are skipped.  The step scalings are given one
per line as SCALE_PROCESS_0 .. SCALE_PROCESS_{W-1} and their count must
match MAX_CHILDREN.  Point files hold whitespace-separated floats, one
curve point per line, printed with 17 significant digits so a write and
read round trip is exact.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import MISSING, fields
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .params import ParameterError, RunParams
from .tree import TreeNode, iter_nodes

# Every RunParams field but these three is one KEY value line (see RunParams).
_KEYS = {
    f.name.upper(): f
    for f in fields(RunParams)
    if f.name not in ("scalings", "worker_budget", "round_limit")
}


def _format_float(x: float) -> str:
    return "%.17g" % x


def parse_parameters(path: str | os.PathLike) -> RunParams:
    """Read a run-parameter file.

    Raises ParameterError naming the file as given and the offending key
    and line for unknown keys, duplicates, bad numbers, missing keys, or
    scalings other than SCALE_PROCESS_0 .. SCALE_PROCESS_{W-1}.
    """
    name = os.fspath(path)
    seen: dict[str, float | int] = {}  # by field name
    scalings: dict[int, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(
                    f"{name}:{lineno}: expected 'KEY value', got {raw.strip()!r}"
                )
            key, text = parts
            if key.startswith("SCALE_PROCESS_"):
                suffix = key[len("SCALE_PROCESS_") :]
                if not suffix.isdigit():
                    raise ParameterError(
                        f"{name}:{lineno}: bad scaling key {key!r}"
                    )
                table, slot, convert = scalings, int(suffix), float
            elif key in _KEYS:
                f = _KEYS[key]
                table, slot, convert = seen, f.name, int if f.type == "int" else float
            else:
                raise ParameterError(f"{name}:{lineno}: unknown key {key!r}")
            if slot in table:
                raise ParameterError(f"{name}:{lineno}: duplicate key {key!r}")
            try:
                table[slot] = convert(text)
            except ValueError as exc:
                raise ParameterError(
                    f"{name}:{lineno}: bad value for {key}: {text!r}"
                ) from exc

    missing = sorted(
        key for key, f in _KEYS.items() if f.default is MISSING and f.name not in seen
    )
    if missing:
        raise ParameterError(f"{name}: missing required key(s): {', '.join(missing)}")

    n_children = int(seen["max_children"])
    # The slots are distinct, so MAX_CHILDREN of them all below MAX_CHILDREN
    # are exactly 0 .. MAX_CHILDREN-1; nothing MAX_CHILDREN long is built.
    if len(scalings) != max(n_children, 0) or any(k >= n_children for k in scalings):
        got = ", ".join(f"SCALE_PROCESS_{i}" for i in sorted(scalings)) or "none"
        raise ParameterError(
            f"{name}: need SCALE_PROCESS_0 .. SCALE_PROCESS_{n_children - 1} "
            f"to match MAX_CHILDREN={n_children}, got: {got}"
        )

    return RunParams(**seen, scalings=tuple(scalings[i] for i in range(n_children)))


def write_parameters(params: RunParams, path: str | os.PathLike) -> None:
    """Write a parameter file that parse_parameters reads back exactly.

    Keys are written in RunParams field order, then the scalings; the
    worker budget and round limit are run options, not file keys.
    """
    lines = []
    for key, f in _KEYS.items():
        value = getattr(params, f.name)
        lines.append(f"{key} {value if f.type == 'int' else _format_float(value)}")
    for i, scale in enumerate(params.scalings):
        lines.append(f"SCALE_PROCESS_{i} {_format_float(scale)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_initial_point(path: str | os.PathLike) -> np.ndarray:
    """Read a single point: whitespace-separated floats, comments allowed.

    Text that is not a float, or a file with no values, raises ValueError
    naming the file as given.
    """
    try:
        with warnings.catch_warnings():
            # loadtxt warns on a file with no data; that is raised below.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, comments="#", dtype=float)
    except ValueError as exc:
        raise ValueError(f"{os.fspath(path)}: {exc}") from exc
    if values.size == 0:
        raise ValueError(f"{os.fspath(path)}: no values")
    return np.atleast_1d(values).ravel()


def format_point(z: np.ndarray) -> str:
    return " ".join(_format_float(v) for v in np.asarray(z).ravel())


def write_curve_point(fh: IO[str], z: np.ndarray) -> None:
    fh.write(format_point(z) + "\n")


def write_curve(path: str | os.PathLike, points: Iterable[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for z in points:
            write_curve_point(fh, z)


def read_curve(path: str | os.PathLike) -> np.ndarray:
    """Read a curve file as a (n_points, n_dim) array."""
    return np.loadtxt(path, comments="#", dtype=float, ndmin=2)


def export_dot(
    root: TreeNode, round_index: int, directory: str | os.PathLike
) -> Path:
    """Write the tree as Graphviz DOT, one file per round.

    Nodes are written in depth-first order, filled with their color and
    labeled with the iteration count, step length, and current residual
    norm.  Edges follow child order.  Returns the file path,
    ``tree_<round>.dot`` inside the directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ids: dict[TreeNode, int] = {}
    lines = [f"digraph round_{round_index} {{", "  node [style=filled];"]
    for node in iter_nodes(root):
        ids[node] = len(ids)
        label = (
            f"nu={node.nu} h={node.h_init:.3g} r={node.residual_norm_current:.3g}"
        )
        extra = ", fontcolor=white" if node.color.value == "black" else ""
        lines.append(
            f'  n{ids[node]} [label="{label}", fillcolor={node.color.value}{extra}];'
        )
    for node in iter_nodes(root):
        for child in node.children:
            lines.append(f"  n{ids[node]} -> n{ids[child]};")
    lines.append("}")
    out = directory / f"tree_{round_index}.dot"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out

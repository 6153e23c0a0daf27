"""Deterministic artifact writers: CSV, JSON, and the output manifest.

CSV files use a header row, LF line endings, and floats at 17 significant
digits so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path: Path, header: list, columns: list) -> None:
    """Write one column per header field, all of one length.

    The bytes are `fmt`'s on every value.  A float64 or integer array is
    formatted at once, by one "%.17g" or `str` map over the Python numbers
    of its `tolist()`, which print as its numpy scalars do; any other
    column goes through `fmt` value by value.
    """
    import numpy as np

    cells = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            cells.append(map("%.17g".__mod__, col.tolist()))
        elif isinstance(col, np.ndarray) and col.dtype.kind in "biu":
            cells.append(map(str, col.tolist()))
        else:
            cells.append(map(fmt, col))
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def write_json(path: Path, obj) -> None:
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", newline="\n")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(out_dir: Path, config: dict, seeds: list,
                   wall_time: float, files: list) -> Path:
    """List every artifact with its content hash, plus run metadata."""
    import numpy as np
    import scipy

    from . import __version__

    out_dir = Path(out_dir)
    manifest = {
        "config": _jsonable(config),
        "seeds": list(seeds),
        "wall_time_seconds": wall_time,
        "versions": {"fracshape": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "files": [{"name": Path(f).name, "sha256": sha256_of(f)}
                  for f in sorted(files, key=lambda f: Path(f).name)],
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path

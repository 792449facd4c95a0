"""Result emission: CSV tables, JSON reports, gnuplot companions.

Every file starts with a provenance block ('#' comments in CSV, a
"provenance" object in JSON) carrying the config label, the canonical
config hash, the package version, and the tolerance set, so any table can
be traced back to the exact run that produced it.  CSV numbers have 17
significant digits, JSON numbers are the shortest repr that round-trips
(NaN and Infinity included), and both read back as the same float.
"""

from __future__ import annotations

import json
from itertools import starmap
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash


def provenance(cfg: RunConfig, **extra) -> dict:
    from . import __version__, fock
    info = {"label": cfg.label, "config_hash": config_hash(cfg),
            "version": __version__,
            "tolerances": {"fock_tail": fock.TAIL_TOL,
                           "en_convergence": fock.EN_CONVERGENCE}}
    info.update(extra)
    return info


def _comment_block(info: dict) -> list[str]:
    lines = []
    for key, val in info.items():
        if isinstance(val, dict):
            val = ", ".join(f"{k}={v:.17g}" for k, v in val.items())
        lines.append(f"# {key}: {val}")
    return lines


def write_csv(path: Path, info: dict, names: list[str], columns) -> Path:
    """One CSV column per name from equal-size arrays of numbers or
    booleans, read in C order; booleans are written as 1/0."""
    return _write_rows(path, info, names, [_csv_texts(c) for c in columns])


def _write_rows(path: Path, info: dict, names: list[str], texts) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["{}"] * len(names)) + "\n"
    with open(path, "w") as fh:
        for line in _comment_block(info):
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(starmap(row.format, zip(*texts)))
    return path


def _csv_texts(values) -> np.ndarray:
    return _texts(values, lambda v: ("%.17g " * len(v) % tuple(v)).split())


def _texts(values, fmt) -> np.ndarray:
    """Object array of the strings of values in C order, from one call of
    fmt(list of numbers) on its distinct entries; floats are told apart
    by bit pattern, so -0.0 keeps its sign."""
    flat = np.ravel(values)
    key = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return np.array(fmt(flat[first].tolist()), dtype=object)[inverse]


def write_json(path: Path, info: dict, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.writelines(_encode({"provenance": info, **payload}))
        fh.write("\n")
    return path


def _encode(obj, level: int = 0):
    """json.dump(obj, indent=2, default=_json_default) in chunks, with the
    distinct numbers of each numeric array formatted by one json.dumps
    call and the array laid out in one chunk."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf":
        text = _texts(obj, lambda v: json.dumps(v)[1:-1].split(", "))
        text = text.reshape(obj.shape).tolist()
        yield text if isinstance(text, str) else _nest(text, level)
    elif isinstance(obj, dict):
        yield from _block([(f"{json.dumps({k: 0})[1:-4]}: ", v)
                           for k, v in obj.items()], level, "{}")
    elif isinstance(obj, (list, tuple)):
        yield from _block([("", v) for v in obj], level, "[]")
    elif obj is None or isinstance(obj, (str, int, float)):
        yield json.dumps(obj)
    else:
        yield from _encode(_json_default(obj), level)


def _block(items: list, level: int, brackets: str):
    """The (prefix, value) items of an object or array at depth level,
    one per line."""
    sep, inner = brackets[0], "\n" + "  " * (level + 1)
    for prefix, value in items:
        yield sep + inner + prefix
        yield from _encode(value, level + 1)
        sep = ","
    yield "\n" + "  " * level + brackets[1] if items else brackets


def _nest(text: list, level: int) -> str:
    """A JSON array of the strings in the nested list text at depth level."""
    if text and isinstance(text[0], list):
        text = [_nest(row, level + 1) for row in text]
    if not text:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return f"[{inner}{(',' + inner).join(text)}\n{'  ' * level}]"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_timeseries(outdir: Path, stem: str, result, info: dict):
    """CSV with t + one column per curve, two-column .dat per curve, and a
    .gp script that plots them all."""
    outdir = Path(outdir)
    t, *curves = map(_csv_texts, (result.t, *result.curves.values()))
    paths = [_write_rows(outdir / f"{stem}.csv", info, ["t", *result.curves],
                         [t, *curves])]
    for curve, text in zip(result.curves, curves):
        safe = curve.replace(":", "_")
        paths.append(_write_rows(outdir / f"{stem}_{safe}.dat", info,
                                 ["t", curve], [t, text]))
    gp = [f"# gnuplot script for {stem}", "set xlabel 't'",
          "set ylabel 'EN'", "set key outside", "plot \\"]
    parts = [f"  '{stem}_{c.replace(':', '_')}.dat' using 1:2 "
             f"with lines title '{c}'" for c in result.curves]
    gp.append(", \\\n".join(parts))
    script = outdir / f"{stem}.gp"
    script.write_text("\n".join(gp) + "\n")
    paths.append(script)
    return paths


def write_sweep(outdir: Path, stem: str, result, info: dict):
    """One CSV row per grid cell, in C order, plus a JSON dump."""
    outdir = Path(outdir)
    names = [ax.name for ax in result.spec.axes] + ["en", "valid"] \
        + list(result.extras)
    columns = [*np.meshgrid(*result.axis_values, indexing="ij"), result.en,
               result.valid, *result.extras.values()]
    csv_path = write_csv(outdir / f"{stem}.csv", info, names, columns)
    payload = {
        "axes": [{"name": ax.name, "values": result.axis_values[k]}
                 for k, ax in enumerate(result.spec.axes)],
        "en": result.en, "valid": result.valid,
        "extras": result.extras, "meta": result.meta,
        "invalid_cells": [{"index": list(i), "note": n}
                          for i, n in result.invalid_cells]}
    json_path = write_json(outdir / f"{stem}.json", info, payload)
    return [csv_path, json_path]


def write_rate(outdir: Path, stem: str, results: dict, info: dict):
    """results: label -> RateResult, all sharing one g-axis."""
    outdir = Path(outdir)
    labels = list(results)
    first = results[labels[0]]
    names = ["g"]
    cols = [first.g_values]
    for label in labels:
        names += [f"en_{label}", f"eta_{label}"]
        cols += [results[label].en, results[label].eta]
    csv_path = write_csv(outdir / f"{stem}.csv", info, names, cols)
    payload = {"zero_crossings": {l: results[l].zero_crossings
                                  for l in labels},
               "meta": {l: results[l].meta for l in labels}}
    json_path = write_json(outdir / f"{stem}.json", info, payload)
    return [csv_path, json_path]


__all__ = ["provenance", "write_csv", "write_json", "write_timeseries",
           "write_sweep", "write_rate"]

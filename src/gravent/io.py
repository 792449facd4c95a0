"""Result emission: CSV tables, JSON reports, gnuplot companions.

Every file starts with a provenance block ('#' comments in CSV and .dat
files, a "provenance" object in JSON) carrying the config label, hash,
package version, tolerances and the command's settings, a Fock run's
cutoffs among them, so any table traces back to the run that made it.
Tables of numbers go to CSV with 17 significant digits, each distinct
number formatted once; reports, and what a table cannot hold, go to
JSON through json.dump(indent=2), whose numbers are the shortest repr
that round-trips (NaN and Infinity included).  Both read back as the
same float.  write_json takes plain Python values only: a caller turns
its arrays into lists first.
"""

from __future__ import annotations

import json
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


def _comment_lines(info: dict) -> list[str]:
    lines = []
    for key, val in info.items():
        if isinstance(val, dict):
            val = ", ".join(f"{k}={v:.17g}" for k, v in val.items())
        lines.append(f"# {key}: {val}")
    return lines


def write_csv(path: Path, info: dict, names: list[str], columns) -> Path:
    """One CSV column per name from equal-size arrays of numbers or
    booleans, read in C order; booleans are written as 1/0."""
    return _write_rows(path, info, names, [_texts(c) for c in columns])


def _write_rows(path: Path, info: dict, names: list[str], texts) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in _comment_lines(info):
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*texts))
    return path


def _texts(values) -> list[str]:
    """The "%.17g" strings of values in C order, from one formatting of
    their distinct entries; floats are told apart by bit pattern, so -0.0
    keeps its sign."""
    flat = np.ravel(values)
    key = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    distinct = flat[first].tolist()
    return np.array(("%.17g " * len(distinct) % tuple(distinct)).split(),
                    dtype=object)[inverse].tolist()


def write_json(path: Path, info: dict, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"provenance": info, **payload}, fh, indent=2)
        fh.write("\n")
    return path


def write_timeseries(outdir: Path, stem: str, result, info: dict):
    """CSV with t + one column per curve, comma-separated two-column .dat
    per curve, and a .gp script that plots them all."""
    outdir = Path(outdir)
    t, *curves = map(_texts, (result.t, *result.curves.values()))
    paths = [_write_rows(outdir / f"{stem}.csv", info, ["t", *result.curves],
                         [t, *curves])]
    for curve, text in zip(result.curves, curves):
        safe = curve.replace(":", "_")
        paths.append(_write_rows(outdir / f"{stem}_{safe}.dat", info,
                                 ["t", curve], [t, text]))
    gp = [f"# gnuplot script for {stem}", "set datafile separator ','",
          "set xlabel 't'", "set ylabel 'EN'", "set key outside", "plot \\"]
    parts = [f"  '{stem}_{c.replace(':', '_')}.dat' using 1:2 "
             f"with lines title '{c}'" for c in result.curves]
    gp.append(", \\\n".join(parts))
    script = outdir / f"{stem}.gp"
    script.write_text("\n".join(gp) + "\n")
    paths.append(script)
    return paths


def write_sweep(outdir: Path, stem: str, result, info: dict):
    """One CSV row per grid cell, in C order, an invalid cell's numbers as
    nan, plus a JSON of what a row cannot hold: the axes and the index
    and reason of each invalid cell."""
    outdir = Path(outdir)
    names = [ax.name for ax in result.spec.axes] + ["en", "valid"] \
        + list(result.extras)
    columns = [*np.meshgrid(*result.axis_values, indexing="ij"), result.en,
               result.valid, *result.extras.values()]
    csv_path = write_csv(outdir / f"{stem}.csv", info, names, columns)
    payload = {
        "axes": [{"name": ax.name, "values": values.tolist()}
                 for ax, values in zip(result.spec.axes, result.axis_values)],
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
                                  for l in labels}}
    json_path = write_json(outdir / f"{stem}.json", info, payload)
    return [csv_path, json_path]


__all__ = ["provenance", "write_csv", "write_json", "write_timeseries",
           "write_sweep", "write_rate"]

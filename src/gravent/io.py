"""Result emission: CSV tables, JSON reports, gnuplot companions.

Every file starts with a provenance block ('#' comments in CSV, a
"provenance" object in JSON) carrying the config label, the canonical
config hash, the package version, and the tolerance set, so any table can
be traced back to the exact run that produced it.  Numbers are written
with 17 significant digits and round-trip through float exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash


def provenance(cfg: RunConfig, **extra) -> dict:
    from . import __version__
    info = {"label": cfg.label, "config_hash": config_hash(cfg),
            "version": __version__,
            "tolerances": {"fock_tail": cfg.tolerances.fock_tail,
                           "en_convergence": cfg.tolerances.en_convergence}}
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
    """One CSV column per name from equal-size arrays, read in C order;
    booleans are written as 1/0."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["{:.17g}"] * len(names)) + "\n"
    columns = [np.ravel(c).tolist() for c in columns]
    with open(path, "w") as fh:
        for line in _comment_block(info):
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        fh.writelines(row.format(*cells) for cells in zip(*columns))
    return path


def write_json(path: Path, info: dict, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"provenance": info, **payload}, fh, indent=2,
                  default=_json_default)
        fh.write("\n")
    return path


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
    names = ["t"] + list(result.curves)
    paths = [write_csv(outdir / f"{stem}.csv", info, names,
                       [result.t, *result.curves.values()])]
    for curve, values in result.curves.items():
        safe = curve.replace(":", "_")
        dat = outdir / f"{stem}_{safe}.dat"
        paths.append(write_csv(dat, info, ["t", curve], [result.t, values]))
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

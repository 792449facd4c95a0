"""Configuration schema, presets, output files, and the command line."""

import argparse
import dataclasses
import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_validation
import gravent
import gravent.config
import gravent.sweep
from gravent import (AxisSpec, ConfigError, DynamicsSection, RateSection,
                     SweepSection, TimeRule, config_hash, load_config,
                     load_preset, parse_config, serialize_config)
from gravent.cli import main
from gravent.config import (FeasibilitySection, base_cell,
                            resolve_dimensionless, resolve_si)
from gravent.presets import PRESET_NAMES, SEC5_GOLDEN, golden_check

MINIMAL = {
    "label": "unit",
    "mode": "dimensionless",
    "system": {"g_a": 0.02, "g_b": 1.0, "F": 0.1},
}


# every preset's config_hash, which each result file's provenance carries
PRESET_HASHES = {
    "fig2": "5acc84bc91d6d404", "fig3a": "20b57100b2b7cd11",
    "fig3b": "911243a9522594a0", "fig4": "88657a966b706199",
    "fig5": "bb9fd701c491f6e3", "fig6": "c4ce0a6d5af89e9e",
    "sec5-feasibility": "99e73aee708e840d"}


def cfg_with(**sections):
    data = json.loads(json.dumps(MINIMAL))
    data.update(sections)
    return data


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.label == "unit"
        assert cfg.system.F == 0.1
        assert cfg.mediator.alpha0 == 1.0 + 0.0j
        assert cfg.dephasing.gamma == 0.0
        assert cfg.dynamics is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match=r"\.systm"):
            parse_config(cfg_with(systm={}))

    @pytest.mark.parametrize("section,key", [
        *(("validate", key) for key in (
            "seed", "overlap_samples", "pt_samples", "fock_n", "t_points",
            "overlap_tol", "pt_tol", "en_tol")),
        ("tolerances", "fock_tail"), ("tolerances", "en_convergence")])
    def test_validate_and_tolerances_are_unknown_keys(self, section, key):
        """validate's policy is fixed in validate.py and the Fock tail in
        fock.py: no field of the deleted sections parses."""
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_with(**{section: {key: 0.5}}))
        assert (exc.value.path, exc.value.message) == (
            f"<config>.{section}", "unknown key")

    def test_unknown_nested_key_reports_path(self):
        bad = cfg_with(system={"g_a": 0.02, "g_b": 1.0, "F": 0.1,
                               "drive": 2})
        with pytest.raises(ConfigError, match=r"\.system\.drive"):
            parse_config(bad)

    def test_mode_block_consistency(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"label": "x", "mode": "si",
                          "system": MINIMAL["system"]})
        both = cfg_with(si_system={"m_a": 1e-18, "m_c": 1e-14, "d": 1e-4,
                                   "d0": 1e-7, "omega_c": 1e4,
                                   "omega_b": 1e9, "chi": 1e15})
        with pytest.raises(ConfigError, match="mode"):
            parse_config(both)

    def test_exactly_one_dimensionless_drive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg_with(system={"g_a": 0.02, "g_b": 1.0}))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(cfg_with(system={"g_a": 0.02, "g_b": 1.0,
                                          "F": 0.1, "delta": 0.6}))

    def test_si_drive_needs_charges(self):
        si = {"m_a": 1e-18, "m_c": 1e-14, "d": 1e-4, "d0": 1e-7,
              "omega_c": 1e4, "omega_b": 1e9, "chi": 1e15, "delta": 1.0}
        with pytest.raises(ConfigError, match="charges"):
            parse_config({"label": "x", "mode": "si", "si_system": si})

    def test_si_charged_needs_one_drive(self):
        si = {"m_a": 1e-18, "m_c": 1e-14, "d": 1e-4, "d0": 1e-7,
              "omega_c": 1e4, "omega_b": 1e9, "chi": 1e15,
              "Q1": 1e-15, "Q2": -1e-9}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"label": "x", "mode": "si", "si_system": si})
        si2 = dict(si, r0=1e-3, delta=1.0)
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config({"label": "x", "mode": "si", "si_system": si2})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="number"):
            parse_config(cfg_with(dephasing={"gamma": "fast"}))
        with pytest.raises(ConfigError, match="number"):
            parse_config(cfg_with(dephasing={"gamma": True}))
        with pytest.raises(ConfigError, match="integer"):
            parse_config(cfg_with(dynamics={"t_stop": 1.0, "points": 2.5}))
        with pytest.raises(ConfigError, match=r"re, im"):
            parse_config(cfg_with(mediator={"alpha0": "1+0j"}))

    def test_negative_dephasing_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config(cfg_with(dephasing={"gamma": -0.1}))

    def test_dynamics_section_validation(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_with(dynamics={"t_stop": 1.0, "points": 1}))
        assert exc.value.path == "<config>.dynamics.points"
        with pytest.raises(ConfigError, match="bipartitions"):
            parse_config(cfg_with(dynamics={"t_stop": 1.0, "points": 5,
                                            "bipartitions": ["tp_tp"]}))

    def test_variant_shape_validation(self):
        bad = cfg_with(dynamics={"t_stop": 1.0, "points": 5,
                                 "variants": [["ok", {}], ["broken"]]})
        with pytest.raises(ConfigError, match=r"variants\[1\]"):
            parse_config(bad)

    def test_sweep_axis_validation(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_config(cfg_with(sweep={"axes": []}))
        bad_axis = cfg_with(sweep={"axes": [{"name": "F", "start": 0.0,
                                             "stop": 0.2}]})
        with pytest.raises(ConfigError, match="count"):
            parse_config(bad_axis)

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)


# Arbitrary JSON, weighted towards the edges of the model's domain.
JSON_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.5, 0, 1, 1e300, None, True, "",
     []]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def json_nodes(obj, path=()):
    """(path, value) for every node of a JSON tree, root first."""
    yield path, obj
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from json_nodes(value, path + (key,))


KNOWN_KEYS = sorted({path[-1] for name in PRESET_NAMES
                     for path, _ in json_nodes(serialize_config(
                         load_preset(name)))
                     if path and isinstance(path[-1], str)})


class TestConfigBoundary:
    """Bad input stops at parse time as a ConfigError naming the field."""

    @given(st.sampled_from(PRESET_NAMES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_presets_parse_or_raise_config_error(self, name, data):
        raw = serialize_config(load_preset(name))
        nodes = list(json_nodes(raw))
        value = data.draw(JSON_VALUES, label="value")
        if data.draw(st.booleans(), label="inject"):
            objects = [node for _, node in nodes if isinstance(node, dict)]
            target = data.draw(st.sampled_from(objects))
            key = data.draw(st.sampled_from(KNOWN_KEYS)
                            | st.text(max_size=8), label="key")
            target[key] = value
        else:
            leaves = [path for path, node in nodes[1:]
                      if not (isinstance(node, (dict, list)) and node)]
            path = data.draw(st.sampled_from(leaves), label="leaf")
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
        try:
            cfg = parse_config(raw)
        except ConfigError:
            return
        again = serialize_config(cfg)
        json.dumps(again, allow_nan=False)
        assert parse_config(again) == cfg

    MALFORMED = [
        ("system.F",
         lambda d: d["system"].update(F=math.nan)),
        ("mediator",
         lambda d: d.update(mediator={"xi_mag": -0.5})),
        ("sweep.axes[0].name",
         lambda d: d["sweep"]["axes"][0].update(name="Q")),
        ("sweep.axes[0].count",
         lambda d: d["sweep"]["axes"][0].update(count=1)),
        ("sweep.axes[0].scale",
         lambda d: d["sweep"]["axes"][0].update(scale="sqrt")),
        ("sweep.time.kind",
         lambda d: d["sweep"].update(time={"kind": "cycles"})),
        ("sweep.time.t",
         lambda d: d["sweep"].update(time={"kind": "fixed"})),
        ("dynamics.bipartitions",
         lambda d: d["dynamics"].update(bipartitions="tp_qubit")),
        ("dynamics.variants[0]",
         lambda d: d["dynamics"].update(variants=[["v", {"bogus": 1.0}]])),
    ]

    @pytest.mark.parametrize("command", ["dynamics", "sweep"])
    @pytest.mark.parametrize("field,edit", MALFORMED,
                             ids=[f for f, _ in MALFORMED])
    def test_malformed_config_exits_2_naming_the_field(
            self, tmp_path, capsys, command, field, edit):
        data = cfg_with(
            dynamics={"t_stop": 1.0, "points": 5},
            sweep={"axes": [{"name": "F", "start": 0.0, "stop": 0.2,
                             "count": 3}]})
        edit(data)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(data))
        rc = main([command, "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {cfg_path}.{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field,edit", [
        ("<config>.system", {"system": {"g_a": 0.02, "g_b": 1.0,
                                        "delta": 1.5}}),
        ("<config>.system.g_a", {"system": {"g_a": 10 ** 400, "g_b": 1.0,
                                            "F": 0.1}}),
        ("<config>.dynamics.fock_n", {"dynamics": {
            "t_stop": 1.0, "points": 5, "backend": "fock", "fock_n": 0}}),
        ("<config>.sweep.fock_n", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "backend": "fock", "fock_n": 0}}),
        ("<config>.dynamics.fock_n", {"dynamics": {
            "t_stop": 1.0, "points": 5, "backend": "fock", "fock_n": 1025}}),
        ("<config>.sweep.fock_n", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "backend": "fock", "fock_n": 1025}}),
        ("<config>.dynamics.variants[0]", {"dynamics": {
            "t_stop": 1.0, "points": 5,
            "variants": [["v", {"xi_mag": -1.0}]]}}),
        ("<config>.dynamics.variants[1]", {"dynamics": {
            "t_stop": 1.0, "points": 5,
            "variants": [["ok", {}], ["v", {"delta": 2.0}]]}}),
        ("<config>.dynamics.variants[0]", {"dynamics": {
            "t_stop": 1.0, "points": 5,
            "variants": [["v", {"bogus": 1.0}]]}}),
        ("<config>.dynamics.variants[0]", {"dynamics": {
            "t_stop": 1.0, "points": 5,
            "variants": [["v", {"delta": -0.5}]]}}),
        ("<config>.sweep.axes[0]", {"sweep": {
            "axes": [{"name": "F", "start": -0.1, "stop": 0.1, "count": 3}]}}),
        ("<config>.sweep.axes[1]", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.1, "count": 3},
                     {"name": "gamma", "start": -0.5, "stop": 0.0,
                      "count": 3}]}}),
        ("<config>.rate.variants[0]", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.1, "stop": 1.0, "count": 5},
            "variants": [["v", {"gamma_tp": -0.1}]]}}),
        ("<config>.rate.axis", {"rate": {
            "which": "g_b",
            "axis": {"name": "gamma", "start": -1.0, "stop": 1.0,
                     "count": 5}}}),
        ("<config>.rate.axis", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_a", "start": 0.0, "stop": 0.1,
                     "count": 5}}}),
        ("<config>.rate.axis", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.0, "stop": 2.0,
                     "count": 2}}}),
        ("<config>.rate.axis", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.5, "stop": 0.5,
                     "count": 5}}}),
        ("<config>.sweep.axes", {"sweep": {"axes": [
            {"name": "F", "start": 0.0, "stop": 0.1, "count": 3},
            {"name": "g_b", "start": 0.0, "stop": 2.0, "count": 3},
            {"name": "gamma", "start": 0.0, "stop": 0.1, "count": 3}]}}),
        ("<config>.sweep.axes", {"sweep": {"axes": [
            {"name": "F", "start": 0.0, "stop": 0.1, "count": 3},
            {"name": "s", "start": 0.0, "stop": 0.5, "count": 3}]}}),
        ("<config>.dynamics.bipartitions", {
            "dephasing": {"gamma": 0.1},
            "dynamics": {"t_stop": 1.0, "points": 5, "backend": "fock",
                         "bipartitions": ["tp_qubit", "tp_mediator"]}}),
        ("<config>.dynamics.bipartitions", {"dynamics": {
            "t_stop": 1.0, "points": 5, "backend": "both",
            "bipartitions": ["qubit_mediator"],
            "variants": [["ok", {}], ["v", {"gamma_tp": 0.2}]]}}),
        ("<config>.sweep.backend", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "backend": "magic"}}),
        ("<config>.dynamics.backend", {"dynamics": {
            "t_stop": 1.0, "points": 5, "backend": "magic"}}),
        ("<config>.dynamics.hamiltonian", {"dynamics": {
            "t_stop": 1.0, "points": 5, "hamiltonian": "rotating"}}),
        ("<config>.feasibility.gamma_window[0]",
         {"feasibility": {"gamma_window": [-5.0, 0.0]}}),
        ("<config>.sweep.time.t", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "time": {"kind": "phase", "t": 5.0}}}),
    ], ids=["negative-drive", "float-overflow", "dynamics.fock_n",
            "sweep.fock_n", "dynamics.fock_n-past-the-ceiling",
            "sweep.fock_n-past-the-ceiling",
            "variant-xi_mag", "variant-delta", "variant-unknown-key",
            "variant-unstable", "sweep-axis-F", "sweep-axis-gamma",
            "rate-variant-gamma_tp", "rate-axis-gamma", "rate-axis-name",
            "rate-axis-count", "rate-axis-width", "sweep-three-axes",
            "sweep-two-drives",
            "dephased-mediator-cut", "variant-dephased-mediator-cut",
            "sweep-backend", "dynamics-backend", "dynamics-hamiltonian",
            "gamma_window", "phase-rule-with-t"])
    def test_out_of_domain_values_name_the_field(self, field, edit):
        with pytest.raises(ConfigError) as exc:
            parse_config(cfg_with(**edit))
        assert exc.value.path == field

    @pytest.mark.parametrize("field,edit", [
        ("label", {"label": "../escaped"}),
        ("label", {"label": ".."}),
        ("label", {"label": ""}),
        ("dynamics.variants[1]", {"dynamics": {
            "t_stop": 1.0, "points": 5,
            "variants": [["ok", {}], ["x/../../../up", {}]]}}),
        ("dynamics.variants[0]", {"dynamics": {
            "t_stop": 1.0, "points": 5, "variants": [[".", {}]]}}),
        ("rate.variants[0]", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.1, "stop": 1.0, "count": 5},
            "variants": [["a,b", {}]]}}),
    ], ids=["label-parent", "label-dotdot", "label-empty",
            "dynamics-variant-path", "dynamics-variant-dot",
            "rate-variant-comma"])
    def test_labels_that_are_not_file_names_are_rejected(
            self, tmp_path, capsys, field, edit):
        """A label names output files: a path in it wrote outside --out,
        and a comma split a CSV header into more names than columns."""
        data = cfg_with(**edit)
        with pytest.raises(ConfigError, match="label") as exc:
            parse_config(data)
        assert exc.value.path == f"<config>.{field}"
        cfg_path = tmp_path / "cfg" / "bad.json"
        cfg_path.parent.mkdir()
        cfg_path.write_text(json.dumps(data))
        command = "rate" if "rate" in edit else "dynamics"
        assert main([command, "--config", str(cfg_path), "--out",
                     str(tmp_path / "cfg" / "out")]) == 2
        assert f"error: {cfg_path}.{field}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json",
                                                               "cfg"]

    NEGATIVE_TIMES = [
        ("dynamics.t_start", {"dynamics": {
            "t_start": -20.0, "t_stop": 0.0, "points": 5}}),
        ("dynamics.t_stop", {"dynamics": {"t_stop": -1.0, "points": 5}}),
        ("dynamics.variants[0]", {"dynamics": {
            "t_stop": 1.0, "points": 5, "variants": [["v", {"t": -1.0}]]}}),
        ("sweep.time.t", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "time": {"kind": "fixed", "t": -20.0}}}),
        ("sweep.time.cycles", {"sweep": {
            "axes": [{"name": "F", "start": 0.0, "stop": 0.2, "count": 3}],
            "time": {"cycles": -1.0}}}),
        ("sweep.axes[0]", {"sweep": {
            "axes": [{"name": "t", "start": -1.0, "stop": 1.0, "count": 3}]}}),
        ("rate.time.t", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.1, "stop": 1.0, "count": 5},
            "time": {"kind": "fixed", "t": -1.0}}}),
        ("rate.variants[0]", {"rate": {
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.1, "stop": 1.0, "count": 5},
            "variants": [["v", {"t": -1.0}]]}}),
        ("feasibility.cycles", {"feasibility": {"cycles": -1.0}}),
    ]

    @pytest.mark.parametrize("field,edit", NEGATIVE_TIMES,
                             ids=[f for f, _ in NEGATIVE_TIMES])
    def test_negative_times_are_rejected(self, tmp_path, capsys, field,
                                         edit):
        """With gamma > 0 the mask e^{-gamma t} exceeds 1 at t < 0, and the
        two-qubit EN, at most 1, came out as 2.636 at t = -15."""
        data = cfg_with(system={"g_a": 0.3, "g_b": 1.0, "F": 0.1},
                        dephasing={"gamma": 0.3}, **edit)
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.path == f"<config>.{field}"
        cfg_path = tmp_path / "neg.json"
        cfg_path.write_text(json.dumps(data))
        command = next(iter(edit))
        rc = main([command, "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {cfg_path}.{field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,preset,field", [
        ("sweep", "fig2", "sweep.axes[0]"),
        ("feasibility", "sec5-feasibility", "feasibility.cycles")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cycles_past_the_float_range_are_rejected(
            self, tmp_path, capsys, command, preset, field):
        """1e306 periods overflowed t (sec5) or the phase g_eff t at the
        F = 0.2495 end of fig2's axis: the kernel warned and eigvalsh
        failed with "Eigenvalues did not converge", naming no field."""
        data = serialize_config(load_preset(preset))
        (data[command].get("time") or data[command])["cycles"] = 1e306
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.path == f"<config>.{field}"
        assert "cycles: 1e+306 periods" in str(exc.value)
        cfg_path = tmp_path / "big.json"
        cfg_path.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"error: {cfg_path}.{field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_sweep_corner_past_the_float_range_names_the_axes(
            self, tmp_path, capsys):
        """Each axis's endpoints keep a finite phase g_eff t at the other
        axis's base value; only the F = 0.2495, g_b = 2 corner overflows,
        and it exited 2 at run time naming no section."""
        data = cfg_with(system={"g_a": 1.0 / 48.0, "g_b": 1.0, "F": 0.0},
                        sweep={"axes": [
                            {"name": "F", "start": 0.0, "stop": 0.2495,
                             "count": 3},
                            {"name": "g_b", "start": 1.0, "stop": 2.0,
                             "count": 2}], "time": {"cycles": 4e304}})
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.path == "<config>.sweep.axes"
        assert "cycles: 4e+304 periods" in str(exc.value)
        cfg_path = tmp_path / "corner.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 2
        assert f"error: {cfg_path}.sweep.axes: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # a corner past the instability stays a NaN cell of the sweep
        data["sweep"]["axes"][0]["stop"] = 0.3
        data["sweep"]["time"]["cycles"] = 1.0
        parse_config(data)

    @staticmethod
    def _with_gap(preset: str, delta: float) -> dict:
        """The preset's config with the gap delta on its system, or on
        fig3b's second dynamics variant."""
        data = serialize_config(load_preset(preset))
        if preset == "fig3b":
            data["dynamics"]["variants"][1][1]["delta"] = delta
        elif preset == "fig3a":
            data["system"] = dict(data["system"], delta=delta)
            del data["system"]["F"]
        else:
            data["si_system"]["delta"] = delta
        return data

    @pytest.mark.parametrize("delta", [1e-250, 1e-300, 5e-324])
    @pytest.mark.parametrize("preset,field", [
        ("fig3a", "system.delta"), ("fig3b", "dynamics.variants[1]"),
        ("sec5-feasibility", "si_system")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_gap_too_small_for_float64_is_rejected(
            self, tmp_path, capsys, preset, field, delta):
        """One mediator cycle takes g_eff t past the largest float.  On
        fig3a, validate exited 2 with "Eigenvalues did not converge"
        after overflow warnings at 1e-300 and 1 on a ValueError from
        eig_banded at 5e-324, where dynamics exited 2 the same way."""
        data = self._with_gap(preset, delta)
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.path == f"<config>.{field}"
        assert "1 periods take t or the phase g_eff t past the largest " \
            "float" in str(exc.value)
        cfg_path = tmp_path / "gap.json"
        cfg_path.write_text(json.dumps(data))
        for command in ("validate", "dynamics"):
            assert main([command, "--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 2
            assert f"error: {cfg_path}.{field}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["fig3a", "fig3b",
                                        "sec5-feasibility"])
    def test_a_gap_of_1e_200_still_parses(self, preset):
        """One cycle keeps g_eff t finite there: 2.6e299 on fig3a."""
        parse_config(self._with_gap(preset, 1e-200))

    @pytest.mark.parametrize("dynamics", [
        {"t_stop": 1.0, "points": 5, "backend": "fock"},
        {"t_stop": 1.0, "points": 5, "backend": "analytic",
         "bipartitions": ["tp_qubit", "tp_mediator"]},
        {"t_stop": 1.0, "points": 5, "backend": "both",
         "bipartitions": ["tp_qubit", "tp_mediator"],
         "variants": [["undamped", {"gamma": 0.0, "gamma_tp": 0.0}]]},
    ], ids=["tp_qubit-only", "analytic-backend", "undamped-variant"])
    def test_dephasing_without_a_fock_mediator_cut_parses(self, dynamics):
        parse_config(cfg_with(dephasing={"gamma": 0.1}, dynamics=dynamics))

    def test_axis_past_the_instability_parses(self):
        cfg = parse_config(cfg_with(sweep={"axes": [
            {"name": "delta", "start": -0.5, "stop": 0.5, "count": 3}]}))
        assert cfg.sweep.axes[0].start == -0.5

    def test_si_inputs_the_setup_rejects_are_config_errors(self,
                                                            sec5_config):
        """Bad inputs and a drive outside its domain stop at parse time."""
        for edit, message in (({"m_a": -1.0}, "m_a must be positive"),
                              ({"delta": -1.0}, "no stable squeezed frame"),
                              ({"delta": 1e12}, "F must be non-negative"),
                              ({"d": 1e300}, "out of range"),
                              ({"omega_c": 1e-9}, "omega_c^2 - 2 G m_a")):
            data = serialize_config(sec5_config)
            data["si_system"].update(edit)
            with pytest.raises(ConfigError) as exc:
                parse_config(data)
            assert exc.value.path == "<config>.si_system"
            assert message in exc.value.message

    def test_non_finite_numbers_rejected_everywhere(self):
        for edit in ({"dephasing": {"gamma": math.inf}},
                     {"mediator": {"alpha0": [0.0, -math.inf]}},
                     {"dynamics": {"t_stop": 1.0, "points": 5,
                                   "variants": [["v", {"gamma": math.nan}]]}}):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(cfg_with(**edit))

    def test_dynamics_variant_may_not_set_t(self, tmp_path, capsys):
        """A time series evaluates every variant on its own time grid: a
        variant's t was dropped, and its column copied the base's."""
        data = cfg_with(dynamics={"t_stop": 6.0, "points": 5, "variants": [
            ["a", {"t": 100.0}], ["b", {}]]})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        rc = main(["dynamics", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {cfg_path}.dynamics.variants[0]: " in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # a rate variant and a sweep axis still set the evaluation time
        cfg = parse_config(cfg_with(
            rate={"which": "g_b", "axis": {"name": "g_b", "start": 0.1,
                                           "stop": 1.0, "count": 5},
                  "variants": [["v", {"t": 3.0}]]},
            sweep={"axes": [{"name": "t", "start": 1.0, "stop": 6.0,
                             "count": 3}]}))
        assert cfg.rate.variants[0][1] == {"t": 3.0}


# one valid instance of each block whose fields carry rules
RULED_BLOCKS = {
    AxisSpec: AxisSpec("F", 0.0, 0.2, 3),
    TimeRule: TimeRule("fixed", t=1.0),
    DynamicsSection: DynamicsSection(1.0, 5),
    SweepSection: SweepSection((AxisSpec("F", 0.0, 0.2, 3),)),
    RateSection: RateSection("g_b", AxisSpec("g_b", 0.1, 1.0, 5)),
    FeasibilitySection: FeasibilitySection(),
    gravent.config.RunConfig: parse_config(MINIMAL),
}


def _ruled_fields():
    blocks = {obj for module in (gravent.sweep, gravent.config)
              for obj in vars(module).values()
              if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    return [(cls, f) for cls in sorted(blocks, key=lambda c: c.__name__)
            for f in dataclasses.fields(cls)
            if {"choices", "min"} & set(f.metadata)]


@pytest.mark.parametrize("cls,f", _ruled_fields(),
                         ids=lambda x: getattr(x, "__name__", None)
                         or getattr(x, "name", None))
def test_value_just_outside_a_field_rule_names_the_field(cls, f):
    """Every "choices" or "min" rule of every section is checked when the
    block is built, and names its field; a "min" value itself passes, NaN
    fails every bound."""
    valid, rule = RULED_BLOCKS[cls], f.metadata
    many = isinstance(getattr(valid, f.name), tuple)

    def build(value):
        return dataclasses.replace(valid,
                                   **{f.name: (value,) if many else value})

    if "choices" in rule:
        bads = ["not-a-choice"]
    else:
        least = rule["min"]
        build(least)
        bads = [least - 1 if isinstance(least, int)
                else math.nextafter(least, -math.inf), math.nan]
    for bad in bads:
        with pytest.raises(ConfigError) as exc:
            build(bad)
        assert exc.value.path == (f"{f.name}[0]" if many else f.name)


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip_exactly(self, name):
        cfg = load_preset(name)
        again = parse_config(serialize_config(cfg), source=name)
        assert again == cfg

    def test_inline_config_round_trips(self):
        data = cfg_with(
            mediator={"alpha0": [0.3, -0.4], "xi_mag": 0.2, "theta": 1.0},
            dephasing={"gamma": 0.05, "gamma_tp": 0.01},
            dynamics={"t_stop": 5.0, "points": 11, "backend": "both",
                      "variants": [["v", {"gamma": 0.2}]]},
            sweep={"axes": [{"name": "F", "start": 0.0, "stop": 0.2,
                             "count": 5}]})
        cfg = parse_config(data)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_hash_is_stable_and_sensitive(self):
        cfg = parse_config(MINIMAL)
        h1, h2 = config_hash(cfg), config_hash(cfg)
        assert h1 == h2
        assert len(h1) == 16 and int(h1, 16) >= 0
        other = parse_config(cfg_with(label="renamed"))
        assert config_hash(other) != h1

    def test_preset_hashes_are_pinned(self):
        assert {name: config_hash(load_preset(name))
                for name in PRESET_NAMES} == PRESET_HASHES

    def test_every_sha256_module_gives_the_same_digest(self, monkeypatch):
        """CPython's own module (`_sha2` from 3.12, `_sha256` before) and
        hashlib's fallback hash alike."""
        cfg = load_preset("sec5-feasibility")
        digests = [config_hash(cfg)]
        for module in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, module, None)
            digests.append(config_hash(cfg))
        assert digests == [PRESET_HASHES["sec5-feasibility"]] * 3


class TestResolvers:
    def test_base_cell_carries_the_drive_form(self):
        cfg = parse_config(MINIMAL)
        cell = base_cell(cfg)
        assert cell["F"] == 0.1 and "delta" not in cell
        cfg2 = parse_config(cfg_with(system={"g_a": 0.02, "g_b": 1.0,
                                             "delta": 0.5}))
        cell2 = base_cell(cfg2)
        assert cell2["delta"] == 0.5 and "F" not in cell2

    def test_dimensionless_resolver(self):
        p = resolve_dimensionless(parse_config(MINIMAL))
        assert p.omega_tilde == 1.0 and p.F == 0.1

    def test_mode_mismatch_on_resolve(self, sec5_config):
        with pytest.raises(ConfigError):
            resolve_dimensionless(sec5_config)
        with pytest.raises(ConfigError):
            resolve_si(parse_config(MINIMAL))

    def test_si_detuning_is_kept_exact(self, sec5_config):
        setup, params, frame = resolve_si(sec5_config)
        requested = sec5_config.si_system.delta
        assert params.delta == requested
        assert setup.r0 is None and setup.tip_distance > 0
        # the back-solved tip distance reproduces the same drive
        from gravent import derive_model_params
        tip = dataclasses.replace(setup, delta=None, r0=setup.tip_distance)
        assert derive_model_params(tip).F == pytest.approx(params.F,
                                                           rel=1e-12)

    def test_si_zero_drive_disables_charges(self, sec5_config):
        from gravent import regime_report
        data = json.loads(json.dumps(
            serialize_config(sec5_config)))
        probe_delta = resolve_si(sec5_config)[1].omega_tilde
        data["si_system"]["delta"] = probe_delta  # delta = omega_tilde
        cfg = parse_config(data)
        setup, params, frame = resolve_si(cfg)
        assert params.F == 0.0 and params.delta == probe_delta
        assert setup.coulomb_active and setup.tip_distance is None
        names = [c.name for c in regime_report(setup, frame).checks]
        assert names == ["gravity_expansion", "casimir_separation"]

    def test_one_si_setup_type(self, sec5_config):
        assert isinstance(sec5_config.si_system, gravent.PhysicalSetup)
        for module in (gravent, gravent.config, gravent.params):
            assert not hasattr(module, "SISystem")
            assert not hasattr(module, "coulomb_distance_for_drive")
        assert len(serialize_config(sec5_config)["si_system"]) == 17


class TestGoldenTable:
    def test_relative_kind(self):
        check = golden_check("g_b", 673.4614 * 1.0005)
        assert check.passed and check.tol == 1e-3
        assert check.max_dev == pytest.approx(5e-4)
        assert "6.734614e+02" in check.note
        assert not golden_check("g_b", 673.4614 * 1.01).passed

    def test_absolute_kind(self):
        """EN = 0 at gamma = 0.01 is the dephasing claim lost, not met."""
        assert golden_check("en_gamma_lo", 0.5229).passed
        assert not golden_check("en_gamma_lo", 0.525).passed
        for lost in (0.0, 0.0019, 0.01):
            assert not golden_check("en_gamma_hi", lost).passed
        check = golden_check("en_gamma_hi", 1.0136e-3)
        assert check.passed
        assert check.max_dev == pytest.approx(1.36e-5)

    def test_rounded_reference_says_so(self):
        check = golden_check("omega_s", 0.011209982432795857)
        assert check.passed and check.max_dev == pytest.approx(8.913e-4,
                                                               rel=1e-3)
        assert "three figures" in check.note

    def test_table_covers_the_published_set(self):
        assert set(SEC5_GOLDEN) == {
            "g_a", "g_b", "s", "omega_s", "g_a_s", "g_b_s",
            "g_eff", "delta_x", "en_gamma_lo", "en_gamma_hi"}


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig9")

    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.label == name


def read_csv(path):
    header = []
    rows = []
    names = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif names is None:
            names = line.split(",")
        else:
            rows.append(line.split(","))
    return header, names, rows


class TestCliDynamics:
    def test_provenance_carries_the_oracle_tolerances(self, monkeypatch):
        """Read from fock.TAIL_TOL and fock.EN_CONVERGENCE at each write."""
        from gravent import fock, io
        assert io.provenance(parse_config(MINIMAL))["tolerances"] == {
            "fock_tail": 1e-8, "en_convergence": 1e-4}
        monkeypatch.setattr(fock, "TAIL_TOL", 1e-12)
        assert io.provenance(parse_config(MINIMAL))["tolerances"][
            "fock_tail"] == 1e-12

    def test_writes_tables_with_provenance(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg_with(
            dynamics={"t_stop": 6.283185307179586, "points": 9})))
        rc = main(["dynamics", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        csv = tmp_path / "out" / "unit_dynamics.csv"
        header, names, rows = read_csv(csv)
        assert names == ["t", "base:tp_qubit:analytic"]
        assert len(rows) == 9
        joined = "\n".join(header)
        assert "config_hash" in joined and "fock_tail" in joined
        # numbers round-trip through float
        assert float(rows[-1][0]) == 6.283185307179586
        assert (tmp_path / "out" / "unit_dynamics.gp").exists()
        assert (tmp_path / "out"
                / "unit_dynamics_base_tp_qubit_analytic.dat").exists()

    def test_section_missing(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        rc = main(["dynamics", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2

    def test_even_level_leak_fails_the_run(self, tmp_path, capsys):
        """Without couplings the squeezed vacuum evolves under a
        parity-conserving lab Hamiltonian and never fills the odd top
        level N - 1 = 23; the even level 22 holds the leak."""
        data = serialize_config(load_preset("fig6"))
        data["system"].update(g_a=0.0, g_b=0.0,
                              F=(1.0 - math.exp(-2.0)) / 4.0)
        data["mediator"].update(alpha0=0.0, xi_mag=1.0, theta=0.0)
        data["dynamics"].update(fock_n=24,
                                variants=[["eps=0", {"epsilon": 0.0}]])
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        rc = main(["dynamics", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "trajectory leaks at N = 24 in one parity group (tail mass " \
            "3.6" in capsys.readouterr().err


class TestCliSweep:
    def test_grid_outputs(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        data = cfg_with(sweep={"axes": [
            {"name": "F", "start": 0.0, "stop": 0.2, "count": 5},
            {"name": "gamma", "start": 0.0, "stop": 0.4, "count": 3}]})
        cfg_path.write_text(json.dumps(data))
        rc = main(["sweep", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        _, names, rows = read_csv(tmp_path / "out" / "unit_sweep.csv")
        assert names[:4] == ["F", "gamma", "en", "valid"]
        assert len(rows) == 15
        blob = json.loads((tmp_path / "out" / "unit_sweep.json").read_text())
        assert blob["provenance"]["label"] == "unit"
        assert np.array(blob["en"]).shape == (5, 3)

    def test_rows_follow_the_cells_in_c_order(self, tmp_path):
        """Each CSV row is one cell in np.ndindex order: axis values, en,
        valid as 1/0, then the extras, every number at 17 significant
        digits and an invalid cell's numbers as nan."""
        from gravent import AxisSpec, SweepSection, io, run_sweep
        res = run_sweep(SweepSection((AxisSpec("gamma", 0.0, 0.4, 3),
                                      AxisSpec("F", 0.2, 0.3, 3))),
                        {"g_a": 1.0 / 48.0, "g_b": 1.0})
        assert res.valid.tolist() == [[True, False, False]] * 3
        io.write_sweep(tmp_path, "cells", res, {"label": "cells"})
        _, names, rows = read_csv(tmp_path / "cells.csv")
        assert names == ["gamma", "F", "en", "valid", *res.extras]
        want = []
        for idx in np.ndindex(3, 3):
            cells = [res.axis_values[0][idx[0]], res.axis_values[1][idx[1]],
                     res.en[idx]]
            cells += [res.extras[name][idx] for name in res.extras]
            text = [f"{float(v):.17g}" for v in cells]
            want.append(text[:3] + ["1" if res.valid[idx] else "0"]
                        + text[3:])
        assert rows == want
        assert "nan" in rows[1]

    def test_invalid_cells_round_trip_as_nan(self, tmp_path):
        """Cells past the instability come back from the JSON as NaN and
        from the CSV as nan; every valid number comes back exactly."""
        data = cfg_with(sweep={"axes": [
            {"name": "F", "start": 0.1, "stop": 0.3, "count": 5},
            {"name": "g_b", "start": 0.5, "stop": 1.0, "count": 2}]})
        cfg = parse_config(data)
        res = gravent.sweep.run_sweep(cfg.sweep, base_cell(cfg))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 0
        blob = json.loads((tmp_path / "out" / "unit_sweep.json").read_text())
        assert blob["valid"] == res.valid.tolist()
        assert blob["valid"] == [[True] * 2] * 3 + [[False] * 2] * 2
        en = np.array(blob["en"])
        np.testing.assert_array_equal(en, res.en)
        assert np.isnan(en).tolist() == (~res.valid).tolist()
        for name, values in res.extras.items():
            np.testing.assert_array_equal(blob["extras"][name], values)
        _, names, rows = read_csv(tmp_path / "out" / "unit_sweep.csv")
        cells = {name: [row[k] for row in rows]
                 for k, name in enumerate(names)}
        assert [c == "nan" for c in cells["en"]] == \
            [v == "0" for v in cells["valid"]]
        np.testing.assert_array_equal(
            np.array(cells["en"], float), res.en.ravel())

    def test_axis_overrides_fixed_drive(self, tmp_path):
        # the system block pins F; the sweep axis takes it over
        cfg_path = tmp_path / "run.json"
        data = cfg_with(sweep={"axes": [
            {"name": "delta", "start": 0.3, "stop": 1.0, "count": 4}]})
        cfg_path.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out")]) == 0


    def test_fock_tail_tolerance_reaches_the_cells(self, tmp_path,
                                                   monkeypatch):
        # at F = 0.2 the N = 64 trajectory leaks 7.6e-4 into its top two
        # levels
        from gravent import fock
        valid = {}
        for tail in (1e-8, 1e-3):
            monkeypatch.setattr(fock, "TAIL_TOL", tail)
            cfg_path = tmp_path / "run.json"
            data = cfg_with(
                system={"g_a": 1.0 / 48.0, "g_b": 1.0, "F": 0.1},
                mediator={"xi_mag": 0.0},
                sweep={"axes": [{"name": "F", "start": 0.0, "stop": 0.2,
                                 "count": 3}],
                       "backend": "both", "fock_n": 64})
            cfg_path.write_text(json.dumps(data))
            assert main(["sweep", "--config", str(cfg_path), "--out",
                         str(tmp_path / "out")]) == 0
            _, names, rows = read_csv(tmp_path / "out" / "unit_sweep.csv")
            valid[tail] = [row[names.index("valid")] for row in rows]
        assert valid == {1e-8: ["1", "1", "0"], 1e-3: ["1", "1", "1"]}


class TestCliRate:
    def test_variants_and_outputs(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        data = cfg_with(rate={
            "which": "g_b",
            "axis": {"name": "g_b", "start": 0.2, "stop": 1.8, "count": 17},
            "variants": [["flat", {"delta": 1.0}],
                         ["driven", {"delta": 0.5}]]})
        cfg_path.write_text(json.dumps(data))
        rc = main(["rate", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        _, names, rows = read_csv(tmp_path / "out" / "unit_rate.csv")
        assert names == ["g", "en_flat", "eta_flat", "en_driven",
                         "eta_driven"]
        assert len(rows) == 17
        blob = json.loads((tmp_path / "out" / "unit_rate.json").read_text())
        assert set(blob["zero_crossings"]) == {"flat", "driven"}


class TestCliValidate:
    @pytest.fixture
    def small(self, monkeypatch):
        small_validation(monkeypatch)

    def test_passes_and_exits_zero(self, tmp_path, small):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        rc = main(["validate", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        blob = json.loads((tmp_path / "out"
                           / "unit_validate.json").read_text())
        assert blob["all_pass"] is True
        assert len(blob["checks"]) == 7

    def test_corrupted_overlap_flags_the_check(self, tmp_path, monkeypatch,
                                               small):
        import gravent.validate as validate_mod
        exact = validate_mod.displaced_overlap
        monkeypatch.setattr(validate_mod, "displaced_overlap",
                            lambda *a, **k: exact(*a, **k).conjugate())
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        rc = main(["validate", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        blob = json.loads((tmp_path / "out"
                           / "unit_validate.json").read_text())
        by_name = {c["name"]: c for c in blob["checks"]}
        assert not by_name["overlap_closed_form_vs_fock"]["passed"]
        assert by_name["pt_matrix_vs_fock"]["passed"]

    def test_oracle_that_finds_no_cutoff_fails_its_checks(self, tmp_path,
                                                          monkeypatch,
                                                          small):
        """The search gives up inside every oracle check; none crashes."""
        from gravent import CutoffTooSmall, fock

        def never_fits(vectors, n):
            """Every row's rejection returned, as the real batches do."""
            return vectors, [CutoffTooSmall(f"no room at N = {n}", 1.0)
                             ] * len(vectors)

        monkeypatch.setattr(fock, "prepare_initial", lambda inits, n, *a, **k:
                            never_fits(np.zeros((len(inits), 4 * n)), n))
        monkeypatch.setattr(fock, "displaced_squeezed_vector",
                            lambda shifts, inits, n, *a, **k: never_fits(
                                np.zeros(np.shape(shifts) + (n,)), n))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        rc = main(["validate", "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        blob = json.loads((tmp_path / "out"
                           / "unit_validate.json").read_text())
        by_name = {c["name"]: c for c in blob["checks"]}
        ceilings = {"overlap_closed_form_vs_fock": 1024,
                    "pt_matrix_vs_fock": 1024,
                    "en_timeseries_analytic_vs_fock": 512,
                    "mediator_decoupling_at_tn": 512,
                    "epsilon_irrelevance": 512, "frame_equivalence": 512}
        for name, ceiling in ceilings.items():
            check = by_name[name]
            assert not check["passed"] and not check["skipped"]
            assert check["note"].startswith(
                f"no cutoff up to the ceiling N = {ceiling} passes (")
            assert "no room at N = " in check["note"]
        assert by_name["closed_form_at_tn"]["passed"]

    @pytest.mark.parametrize("command", ["validate", "dynamics"])
    @pytest.mark.parametrize("section", [
        {"validate": {"pt_tol": 0.99, "en_tol": 0.99, "pt_samples": 1}},
        {"tolerances": {"fock_tail": 1.0}}], ids=["validate", "tolerances"])
    def test_a_validate_or_tolerances_section_exits_2(
            self, tmp_path, capsys, command, section):
        """Such sections once parsed: validate tolerances of 0.99 passed
        every check vacuously, and fock_tail = 1 accepted every N = 2
        trajectory, whose Fock column read 0 beside an analytic 0.4615 at
        t = 6.  Now any config that carries one exits 2, before a run."""
        data = cfg_with(**section, dynamics={
            "t_stop": 6.0, "points": 3, "backend": "both", "fock_n": 2})
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(data))
        rc = main([command, "--config", str(cfg_path), "--out",
                   str(tmp_path / "out")])
        assert rc == 2
        assert f"error: {cfg_path}.{next(iter(section))}: unknown key" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sec5_feasibility_outcomes_are_pinned(self, tmp_path):
        """At s = 6.965 the Fock oracle fails where it cannot reach, the
        lab-frame checks skip, and the closed form misses the decoupling
        formula by more than its fixed 1e-10 because a float t_n is not
        an exact decoupling time there; turning a failure into a skip or
        a pass must be a deliberate edit of this test."""
        rc = main(["validate", "--preset", "sec5-feasibility", "--out",
                   str(tmp_path / "out")])
        assert rc == 1
        blob = json.loads((tmp_path / "out"
                           / "sec5-feasibility_validate.json").read_text())
        outcome = {c["name"]: ("skip" if c["skipped"] else
                               "pass" if c["passed"] else "fail")
                   for c in blob["checks"]}
        assert outcome == {
            "overlap_closed_form_vs_fock": "pass",
            "pt_matrix_vs_fock": "pass",
            "en_timeseries_analytic_vs_fock": "fail",
            "mediator_decoupling_at_tn": "fail",
            "closed_form_at_tn": "fail",
            "epsilon_irrelevance": "skip",
            "frame_equivalence": "skip"}
        by_name = {c["name"]: c for c in blob["checks"]}
        for name in ("en_timeseries_analytic_vs_fock",
                     "mediator_decoupling_at_tn"):
            note = by_name[name]["note"]
            assert note.startswith(
                "no cutoff up to the ceiling N = 512 passes (")
            assert "N = 512: squeezed state leaks" in note
        closed = by_name["closed_form_at_tn"]
        assert closed["tol"] == 1e-10
        assert closed["note"] == "first three decoupling times"
        assert closed["max_dev"] > closed["tol"]

    def test_strong_squeezing_restricts_the_frame(self, monkeypatch):
        """Far past lab reach: oracle checks fail honestly, lab ones skip."""
        from gravent import validate
        data = json.loads(json.dumps(MINIMAL))
        data["system"] = {"g_a": 0.02, "g_b": 1.0, "delta": 1e-6}
        for name, value in (("OVERLAP_SAMPLES", 2), ("PT_SAMPLES", 1),
                            ("T_POINTS", 5)):
            monkeypatch.setattr(validate, name, value)
        report = validate.run_validation(parse_config(data))
        by_name = {c.name: c for c in report.checks}
        assert by_name["epsilon_irrelevance"].skipped
        assert by_name["frame_equivalence"].skipped
        assert "frame restriction" in by_name["epsilon_irrelevance"].note
        # the squeezed-mode image of the lab-prepared state is out of
        # oracle reach at s ~ 3.5, reported as failure rather than crash
        assert not by_name["en_timeseries_analytic_vs_fock"].passed
        assert not report.all_pass
        # analytic-only checks are indifferent to the frame
        assert by_name["closed_form_at_tn"].passed


class TestCliTopLevel:
    def test_requires_exactly_one_source(self, tmp_path, capsys):
        for argv in (["dynamics"],
                     ["dynamics", "--config", "x.json", "--preset", "fig3a"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "give exactly one of --config or --preset" in \
                capsys.readouterr().err

    def test_unknown_preset_rejected_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--preset", "fig9", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --preset: invalid choice: 'fig9'" in \
            capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gravent")

    def test_feasibility_preset_exits_zero(self, tmp_path, capsys):
        rc = main(["feasibility", "--preset", "sec5-feasibility", "--out",
                   str(tmp_path / "out")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "regime checks" in text
        assert "FAIL" not in text

    def test_golden_belongs_to_feasibility_only(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig2", "--golden", "--out",
                  str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --golden" in capsys.readouterr().err
        assert main(["feasibility", "--preset", "sec5-feasibility",
                     "--golden", "--out", str(tmp_path)]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["dynamics", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_repeated_calls_build_no_parsers(self, tmp_path, capsys):
        """Parsers live in reference cycles; with gc off, every parser a
        call built would stay in gc.get_objects()."""
        argv = ["feasibility", "--preset", "sec5-feasibility", "--out",
                str(tmp_path)]

        def parsers():
            return sum(isinstance(o, argparse.ArgumentParser)
                       for o in gc.get_objects())

        gc.disable()
        try:
            for _ in range(3):
                assert main(argv) == 0
            before = parsers()
            for _ in range(3):
                assert main(argv) == 0
            assert parsers() == before
        finally:
            gc.enable()


class TestExports:
    def test_every_exported_name_resolves(self):
        """No `__all__` of the package or of a module names what it no
        longer defines."""
        import importlib
        import pkgutil
        modules = [gravent] + [
            importlib.import_module(f"gravent.{info.name}")
            for info in pkgutil.iter_modules(gravent.__path__)]
        exported = [m for m in modules if hasattr(m, "__all__")]
        assert {"gravent", "gravent.fock", "gravent.sweep"} <= {
            m.__name__ for m in exported}
        for module in exported:
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert not missing, f"{module.__name__} exports {missing}"


CLOSED_FORM_ONLY = """
import sys
from gravent.cli import main
out = sys.argv[1]
for args in ("sweep --preset fig2", "sweep --preset fig4",
             "sweep --preset fig5", "dynamics --preset fig4",
             "dynamics --preset fig3b", "rate --preset fig5",
             "feasibility --preset sec5-feasibility --golden"):
    assert main([*args.split(), "--out", out]) == 0, args
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
openssl = "_hashlib" in sys.modules
assert main(["dynamics", "--preset", "fig3a", "--out", out]) == 0
print(loaded, openssl, "scipy.linalg" in sys.modules)
"""


def test_closed_form_commands_never_load_scipy(tmp_path):
    """A fresh interpreter runs every closed-form command without scipy
    and without OpenSSL's `_hashlib`; the Fock backend of fig3a then
    loads scipy on first use."""
    src = str(Path(gravent.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", CLOSED_FORM_ONLY,
                           str(tmp_path)], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] False True"

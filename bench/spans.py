"""Per-layer timing of gravent, installed from outside the package.

`Tracer.install()` replaces each probed function with a wrapper that
records a span (group, start, end, parent) and `uninstall()` puts the
originals back, so untraced passes run the unmodified program.  Modules
import each other's functions by name (`from .dynamics import ...`), so
a function is patched in every gravent module namespace that holds the
same object, not only where it is defined.

A span's self time is its duration minus that of its direct children.
Summed over all spans it equals the total duration of the root spans
(the `cli.main` calls), so the groups partition a traced pass; whatever
no probe covers stays in the self time of its caller, mostly `cli.self`.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _cutoff(args: dict, result) -> int:
    return int(args["n"])


def _matrix_dim(args: dict, result) -> int:
    return int(args["h"].shape[0])


def _cut_dim(args: dict, result) -> int:
    dims = [int(d) for d in args["dims"]]
    side_a = tuple(args["side_a"])
    side_b = args.get("side_b")
    if side_b is None:
        side_b = [i for i in range(len(dims)) if i not in side_a]
    return math.prod(dims[i] for i in side_a) * \
        math.prod(dims[i] for i in side_b)


def _time_points(args: dict, result) -> int:
    return len(args["t_grid"])


def _grid_cells(args: dict, result) -> int:
    return math.prod(ax.count for ax in args["spec"].axes)


def _written(args: dict, result) -> tuple[str, ...]:
    paths = result if isinstance(result, (list, tuple)) else [result]
    return tuple(str(p) for p in paths if isinstance(p, Path))


@dataclass(frozen=True)
class Probe:
    """One wrapped callable.

    group:     metric stem the span's time is charged to.
    module:    module that defines the callable.
    name:      attribute, or "Class.method".
    measure:   optional (bound arguments, result) -> size or file list.
    inline_in: groups whose spans absorb this call without a span of
               its own (EN inside a bipartition belongs to the cut).
    count_only: count calls, record no span.
    """

    group: str
    module: str
    name: str
    measure: Callable | None = None
    inline_in: tuple[str, ...] = ()
    count_only: bool = False


PROBES = (
    Probe("cli.self", "gravent.cli", "main"),
    Probe("config.load", "gravent.presets", "load_preset"),
    Probe("config.load", "gravent.config", "load_config"),
    Probe("config.load", "gravent.config", "parse_config"),
    Probe("config.load", "gravent.config", "base_cell"),
    Probe("config.load", "gravent.config", "resolve_si"),
    Probe("config.load", "gravent.config", "resolve_dimensionless"),
    Probe("params.frame", "gravent.params", "derive_squeezed_frame"),
    Probe("dynamics.pt_matrix", "gravent.dynamics",
          "partial_transpose_matrix"),
    Probe("dynamics.timeseries", "gravent.dynamics", "en_timeseries",
          measure=_time_points),
    Probe("negativity.en", "gravent.negativity",
          "log_negativity_from_partial_transpose",
          inline_in=("negativity.bipartition",)),
    Probe("negativity.bipartition", "gravent.negativity", "en_bipartition",
          measure=_cut_dim),
    Probe("fock.hamiltonian", "gravent.fock", "build_hamiltonian_squeezed",
          measure=_cutoff),
    Probe("fock.hamiltonian", "gravent.fock", "build_hamiltonian_lab",
          measure=_cutoff),
    Probe("fock.eigensolve", "gravent.fock", "ExactPropagator.__init__",
          measure=_matrix_dim),
    Probe("fock.curves", "gravent.fock", "en_curves"),
    Probe("fock.state_prep", "gravent.fock", "prepare_initial",
          measure=_cutoff),
    Probe("fock.state_prep", "gravent.fock", "displaced_squeezed_vector",
          measure=_cutoff),
    Probe("fock.expm", "gravent.fock", "expm", count_only=True),
    Probe("sweep.run", "gravent.sweep", "run_sweep", measure=_grid_cells),
    Probe("sweep.timeseries", "gravent.sweep", "timeseries_figure"),
    Probe("sweep.rate", "gravent.sweep", "entanglement_rate"),
    Probe("validate.overlap", "gravent.validate",
          "check_overlap_closed_form"),
    Probe("validate.pt_matrix", "gravent.validate", "check_pt_matrix"),
    Probe("validate.en_timeseries", "gravent.validate",
          "check_en_timeseries"),
    Probe("validate.decoupling", "gravent.validate", "check_decoupling"),
    Probe("validate.closed_form_tn", "gravent.validate",
          "check_closed_form_at_tn"),
    Probe("validate.epsilon", "gravent.validate",
          "check_epsilon_irrelevance"),
    Probe("validate.frame_equivalence", "gravent.validate",
          "check_frame_equivalence"),
    Probe("io.write", "gravent.io", "provenance"),
    Probe("io.write", "gravent.io", "write_csv", measure=_written),
    Probe("io.write", "gravent.io", "write_json", measure=_written),
    Probe("io.write", "gravent.io", "write_timeseries", measure=_written),
    Probe("io.write", "gravent.io", "write_sweep", measure=_written),
    Probe("io.write", "gravent.io", "write_rate", measure=_written),
)

# Groups whose entry calls are reported as "<group>_calls".
CALL_GROUPS = ("params.frame", "dynamics.pt_matrix", "negativity.en",
               "negativity.bipartition", "fock.hamiltonian",
               "fock.eigensolve", "fock.state_prep")
# Groups whose self time is reported as "<group>_s".
TIME_GROUPS = ("cli.self", "config.load", "params.frame",
               "dynamics.pt_matrix", "dynamics.timeseries", "negativity.en",
               "negativity.bipartition", "fock.hamiltonian",
               "fock.eigensolve", "fock.curves", "fock.state_prep",
               "sweep.run", "sweep.timeseries", "sweep.rate",
               "validate.overlap", "validate.pt_matrix",
               "validate.en_timeseries", "validate.decoupling",
               "validate.closed_form_tn", "validate.epsilon",
               "validate.frame_equivalence", "io.write")


@dataclass
class Span:
    group: str
    start: float
    parent: int                 # index of the enclosing span, -1 at a root
    end: float = 0.0
    error: str = ""             # exception type name, if the call raised
    info: object = None         # what the probe's measure returned


@dataclass
class Tracer:
    """Spans and counters of the passes run while installed."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    absent: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "gravent" or name.startswith("gravent."))]
        found = set()
        for probe in PROBES:
            home = sys.modules.get(probe.module)
            owner_name, _, attr = probe.name.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) \
                if owner is not None else None
            if original is None:
                continue
            found.add(probe.group)
            wrapper = self._wrap(probe, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        self.absent = {p.group for p in PROBES} - found

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        group = probe.group
        if probe.count_only:
            def counted(*args, **kwargs):
                counts[group] += 1
                return original(*args, **kwargs)
            return counted

        signature = inspect.signature(original) if probe.measure else None

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]].group in probe.inline_in:
                return original(*args, **kwargs)
            span = Span(group, time.perf_counter(),
                        stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe.measure is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span.info = probe.measure(bound, result)
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of the passes recorded since the last reset."""
    spans = tracer.spans
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = Counter()
    size_max = defaultdict(int)
    size_sum = defaultdict(int)
    written: set[str] = set()
    for span, t in zip(spans, own):
        self_s[span.group] += t
        if not _nested(spans, span):
            calls[span.group] += 1
        if isinstance(span.info, int):
            size_max[span.group] = max(size_max[span.group], span.info)
            size_sum[span.group] += span.info
        elif isinstance(span.info, tuple):
            written.update(span.info)

    present = {p.group for p in PROBES} - tracer.absent
    out: dict[str, float] = {}
    for group in TIME_GROUPS:
        if group in present:
            out[f"{group}_s"] = self_s[group]
    for group in CALL_GROUPS:
        if group in present:
            out[f"{group}_calls"] = calls[group]
    if "dynamics.timeseries" in present:
        out["dynamics.timeseries_points"] = size_sum["dynamics.timeseries"]
    if "negativity.bipartition" in present:
        out["negativity.bipartition_dim_max"] = \
            size_max["negativity.bipartition"]
    if "fock.eigensolve" in present:
        out["fock.eigensolve_dim_max"] = size_max["fock.eigensolve"]
    if "fock.state_prep" in present:
        attempts = calls["fock.state_prep"]
        rejected = error_counts(tracer).get("fock.state_prep", {}).get(
            "CutoffTooSmall", 0)
        out["fock.state_prep_rejected"] = rejected
        # no attempt wastes nothing
        out["fock.cutoff_useful_ratio"] = \
            (attempts - rejected) / attempts if attempts else 1.0
    if "fock.expm" in present:
        out["fock.expm_calls"] = tracer.counts["fock.expm"]
    if {"fock.state_prep", "fock.hamiltonian"} & present:
        out["fock.cutoff_max"] = max(size_max["fock.state_prep"],
                                     size_max["fock.hamiltonian"])
    if "sweep.run" in present:
        out["sweep.cells"] = size_sum["sweep.run"]
    if "io.write" in present:
        out["io.files_written"] = len(written)
        out["io.bytes_written"] = sum(Path(p).stat().st_size
                                      for p in written if Path(p).exists())
    return out


def _nested(spans: list[Span], span: Span) -> bool:
    """True for a call made inside another call of the same group."""
    return span.parent >= 0 and spans[span.parent].group == span.group


def error_counts(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Exceptions raised out of each group's entry calls, by type."""
    out: dict[str, Counter] = defaultdict(Counter)
    for span in tracer.spans:
        if span.error and not _nested(tracer.spans, span):
            out[span.group][span.error] += 1
    return {g: dict(c) for g, c in out.items()}


def root_total(tracer: Tracer) -> float:
    return sum(s.end - s.start for s in tracer.spans if s.parent < 0)

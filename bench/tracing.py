"""Spans and counters recorded around odmrkit's public functions, from outside.

Each function is wrapped where its caller looks it up (a module global such
as ``odmrkit.cli.read_spectrum`` or ``odmrkit.fitting.least_squares``), so
the package itself is unchanged. Spans (id, parent, name, start, end) stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name). The span name is "<layer>.<function>".
SPANNED = (
    ("cli", "read_spectrum", "data_io.read_spectrum"),
    ("cli", "write_spectrum", "data_io.write_spectrum"),
    ("cli", "synth_spectrum", "data_io.synth_spectrum"),
    ("cli", "write_fit_report", "data_io.write_fit_report"),
    ("cli", "read_grid", "data_io.read_grid"),
    ("cli", "write_grid", "data_io.write_grid"),
    ("cli", "write_map_cells", "data_io.write_map"),
    ("cli", "write_map_matrix", "data_io.write_map"),
    ("cli", "fit_spectrum", "fitting.fit_spectrum"),
    ("cli", "global_width_fit", "fitting.global_width_fit"),
    ("cli", "global_contrast_fit", "fitting.global_contrast_fit"),
    ("cli", "fit_ap_curve", "fitting.fit_ap_curve"),
    ("fitting", "least_squares", "fitting.least_squares"),
    ("cli", "signal_curve", "spin_models.signal_curve"),
    ("cli", "sensitivity_map", "sensitivity.sensitivity_map"),
    ("sensitivity", "sensitivity_map", "sensitivity.sensitivity_map"),
    ("lineshape", "convolve_inhomogeneous", "lineshape.convolve_inhomogeneous"),
    ("lineshape", "adaptive_simpson", "numerics.adaptive_simpson"),
)
# Called once per map cell: counted, not spanned, to keep the overhead small.
COUNTED = (
    ("cli", "total_width_model", "lineshape.total_width_model"),
    ("cli", "contrast_model", "lineshape.contrast_model"),
    ("sensitivity", "total_width_model", "lineshape.total_width_model"),
    ("sensitivity", "contrast_model", "lineshape.contrast_model"),
)
STAGES = {
    "simulate": "cli.simulate",
    "fit": "cli.fit",
    "global-fit": "cli.global_fit",
    "sensitivity-map": "cli.sensitivity_map",
}


class Tracer:
    """Installs the wrappers, records spans and counters, derives per-round figures."""

    def __init__(self, odmrkit_modules):
        self.mods = odmrkit_modules
        self.t0 = time.perf_counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = [0]
        self._patches: list[tuple[object, object, object]] = []
        self._round_start = 0

    # -- wrappers ---------------------------------------------------------
    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + 1
            self.spans.append((span_id, self._stack[-1], name, 0.0, 0.0))
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id - 1] = (span_id, self._stack[-1], name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _least_squares(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(residual, init, *args, jacobian=None, **kwargs):
            def counted_residual(x):
                counts["ls.residual_evals"] += 1
                return residual(x)

            counted_jacobian = None
            if jacobian is not None:
                def counted_jacobian(x):
                    counts["ls.jacobian_evals"] += 1
                    return jacobian(x)

            jac_before = counts["ls.jacobian_evals"]
            try:
                report = fn(counted_residual, init, *args, jacobian=counted_jacobian, **kwargs)
            except Exception:
                # One Jacobian per iteration; a failed fit reports no n_iter.
                counts["ls.iterations"] += counts["ls.jacobian_evals"] - jac_before
                raise
            counts["ls.iterations"] += report.n_iter
            return report

        return self._spanned("fitting.least_squares", wrapper)

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self):
        counts = self.counts

        def add(key, measure):
            def after(args, _kwargs, result):
                counts[key] += measure(args, result)
            return after

        after = {
            "data_io.read_spectrum": add("read_spectrum.bytes", lambda a, r: os.path.getsize(a[0])),
            "data_io.write_spectrum": add("write_spectrum.bytes", lambda a, r: os.path.getsize(a[1])),
            "fitting.global_width_fit": add("global_width_fit.iterations", lambda a, r: r.n_iter),
            "spin_models.signal_curve": add("signal_curve.points", lambda a, r: len(r)),
            "sensitivity.sensitivity_map": add("sensitivity_map.cells", lambda a, r: r.sensitivity.size),
            "lineshape.convolve_inhomogeneous": add("convolve_inhomogeneous.points", lambda a, r: len(r)),
        }
        for module, attr, name in SPANNED:
            owner = self.mods[module]
            original = getattr(owner, attr)
            if name == "fitting.least_squares":
                wrapped = self._least_squares(original)
            elif name == "numerics.adaptive_simpson":
                wrapped = self._spanned(name, self._abscissa_counter(original))
            else:
                wrapped = self._spanned(name, original, after.get(name))
            self._patch(owner, attr, wrapped)
        for module, attr, name in COUNTED:
            owner = self.mods[module]
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        commands = self.mods["cli"]._COMMANDS
        for command, name in STAGES.items():
            self._patch(commands, command, self._spanned(name, commands[command]))

    def _abscissa_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(integrand, *args, **kwargs):
            def counted(x):
                counts["adaptive_simpson.abscissas"] += len(x)
                return integrand(x)
            return fn(counted, *args, **kwargs)

        return wrapper

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- per-round figures ------------------------------------------------
    def begin_round(self):
        self.counts.clear()
        self._round_start = len(self.spans)

    def end_round(self) -> dict[str, float]:
        """Per-layer figures of the round just traced, keyed by metric name."""
        spans = self.spans[self._round_start :]
        calls: defaultdict[str, int] = defaultdict(int)
        busy: defaultdict[str, float] = defaultdict(float)
        child_time: defaultdict[int, float] = defaultdict(float)
        for span_id, parent, name, start, end in spans:
            calls[name] += 1
            busy[name] += end - start
            child_time[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for span_id, _parent, name, start, end in spans:
            if name.startswith("cli."):
                self_time[name] += (end - start) - child_time[span_id]
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "data_io.read_spectrum.calls": calls["data_io.read_spectrum"],
            "data_io.read_spectrum.s": busy["data_io.read_spectrum"],
            "data_io.read_spectrum.bytes": c["read_spectrum.bytes"],
            "data_io.read_spectrum.mb_per_s": ratio(
                c["read_spectrum.bytes"] / 1e6, busy["data_io.read_spectrum"]
            ),
            "data_io.write_spectrum.calls": calls["data_io.write_spectrum"],
            "data_io.write_spectrum.s": busy["data_io.write_spectrum"],
            "data_io.write_spectrum.bytes": c["write_spectrum.bytes"],
            "data_io.write_spectrum.mb_per_s": ratio(
                c["write_spectrum.bytes"] / 1e6, busy["data_io.write_spectrum"]
            ),
            "data_io.synth_spectrum.s": busy["data_io.synth_spectrum"],
            "data_io.write_fit_report.s": busy["data_io.write_fit_report"],
            "data_io.read_grid.s": busy["data_io.read_grid"],
            "data_io.write_grid.s": busy["data_io.write_grid"],
            "data_io.write_map.s": busy["data_io.write_map"],
            "fitting.fit_spectrum.calls": calls["fitting.fit_spectrum"],
            "fitting.fit_spectrum.s": busy["fitting.fit_spectrum"],
            "fitting.fit_spectrum.failed": c["fitting.fit_spectrum.raised"],
            "fitting.least_squares.calls": calls["fitting.least_squares"],
            "fitting.least_squares.iterations": c["ls.iterations"],
            "fitting.least_squares.residual_evals": c["ls.residual_evals"],
            "fitting.least_squares.jacobian_evals": c["ls.jacobian_evals"],
            "fitting.least_squares.accepted_ratio": ratio(
                c["ls.iterations"], c["ls.residual_evals"]
            ),
            "fitting.global_width_fit.s": busy["fitting.global_width_fit"],
            "fitting.global_width_fit.iterations": c["global_width_fit.iterations"],
            "fitting.global_contrast_fit.s": busy["fitting.global_contrast_fit"],
            "fitting.fit_ap_curve.s": busy["fitting.fit_ap_curve"],
            "spin_models.signal_curve.calls": calls["spin_models.signal_curve"],
            "spin_models.signal_curve.s": busy["spin_models.signal_curve"],
            "spin_models.signal_curve.points": c["signal_curve.points"],
            "spin_models.us_per_point": ratio(
                1e6 * busy["spin_models.signal_curve"], c["signal_curve.points"]
            ),
            "lineshape.convolve_inhomogeneous.s": busy["lineshape.convolve_inhomogeneous"],
            "lineshape.convolve_inhomogeneous.points": c["convolve_inhomogeneous.points"],
            "numerics.adaptive_simpson.calls": calls["numerics.adaptive_simpson"],
            "numerics.adaptive_simpson.abscissas": c["adaptive_simpson.abscissas"],
            "lineshape.total_width_model.calls": c["lineshape.total_width_model"],
            "lineshape.contrast_model.calls": c["lineshape.contrast_model"],
            "sensitivity.sensitivity_map.s": busy["sensitivity.sensitivity_map"],
            "sensitivity.sensitivity_map.cells": c["sensitivity_map.cells"],
            "sensitivity.us_per_cell": ratio(
                1e6 * busy["sensitivity.sensitivity_map"], c["sensitivity_map.cells"]
            ),
        }
        for name in STAGES.values():
            out[name + ".self_s"] = self_time[name]
        return out

    def write(self, path):
        """Write every span, times relative to the tracer's creation."""
        records = [
            {"id": i, "parent": p, "name": n, "start": s - self.t0, "end": e - self.t0}
            for i, p, n, s, e in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records}) + "\n", encoding="utf-8")

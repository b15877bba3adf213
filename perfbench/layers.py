"""Per-layer tracing of ``momreg`` from outside the package.

Each layer is a function (or method) of one ``momreg`` module.  While a
``Tracer`` is installed, every binding of that function that a caller looks
it up through -- the defining module's attribute, a ``from .x import name``
copy in another module, a package re-export, or a value in a module-level
dispatch dict such as ``cli._RUNNERS`` -- is replaced by a wrapper that
records one span (layer, parent span, start, end) per call.  Spans are kept
in memory in flat arrays and folded into per-layer calls and self time when
the run ends.  Uninstalling restores every binding it replaced.

A layer whose module or attribute no longer exists is reported absent and
skipped, so deleting code never breaks the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Layer:
    """A traced function: ``module`` plus a dotted ``attr`` path in it."""

    name: str
    module: str
    attr: str
    bytes_read: bool = False  # report the computed bytes of X and y read per call
    track_min: bool = False  # report the smallest value the function returned


LAYERS = (
    Layer("kernels.block_increment", "momreg._kernels", "block_increment", bytes_read=True),
    Layer("kernels.block_losses", "momreg._kernels", "block_losses", bytes_read=True),
    Layer("kernels.block_mult", "momreg._kernels", "block_mult", bytes_read=True),
    Layer("objective.median_block_index", "momreg.objective", "median_block_index"),
    Layer("objective.block_loss_gradient", "momreg.objective", "block_loss_gradient"),
    Layer("objective.prox_psi", "momreg.objective", "prox_psi"),
    Layer("objective.gram_step_size", "momreg.objective", "gram_step_size", track_min=True),
    Layer("objective.phi_lambda_hat", "momreg.objective", "phi_lambda_hat"),
    Layer("objective._ascend_adversary", "momreg.objective", "_ascend_adversary"),
    Layer("solver.erm_fit", "momreg.solver", "erm_fit"),
    Layer("solver.mom_minimax_fit", "momreg.solver", "mom_minimax_fit"),
    Layer("solver._pattern_refine", "momreg.solver", "_pattern_refine"),
    Layer(
        "solver._WitnessPoolAudit.value_from_losses",
        "momreg.solver",
        "_WitnessPoolAudit.value_from_losses",
    ),
    Layer("solver.oracle_grid_fit", "momreg.solver", "oracle_grid_fit"),
    Layer("blocks.block_increment", "momreg.blocks", "block_increment"),
    Layer("blocks.multiplier_component", "momreg.blocks", "multiplier_component"),
    Layer("verify.check_condition_one", "momreg.verify", "check_condition_one"),
    Layer("verify.check_condition_two", "momreg.verify", "check_condition_two"),
    Layer("verify.lemma_sweep", "momreg.verify", "lemma_sweep"),
    Layer("verify.lemma_reg_check", "momreg.verify", "lemma_reg_check"),
    Layer("verify.estimate_delta", "momreg.verify", "estimate_delta"),
    Layer("cli.run_verify", "momreg.cli", "run_verify"),
)


def per_layer_metric_units(layers=LAYERS) -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for layer in layers:
        units[f"{layer.name}.calls"] = "count"
        units[f"{layer.name}.self_ms"] = "ms"
        units[f"{layer.name}.incl_ms"] = "ms"
        if layer.bytes_read:
            units[f"{layer.name}.gb_computed"] = "GB"
        if layer.track_min:
            units[f"{layer.name}.value_min"] = "1"
    units["trace.overhead_frac"] = "ratio"
    units["trace.layers_absent"] = "count"
    return units


def _bytes_read(args) -> int:
    # Kernels take the row-aligned design X first; y is the other argument
    # with as many rows.  Coefficient vectors and block counts are ignored.
    X = args[0]
    return sum(
        a.nbytes
        for a in args
        if isinstance(a, np.ndarray) and a.ndim >= 1 and a.shape[0] == X.shape[0]
    )


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.absent: list[str] = []
        self._span_layer = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = [-1]
        self._bytes = [0] * len(self.layers)
        self._min = [float("inf")] * len(self.layers)
        self._patches: list[tuple[object, object, object]] = []

    # -- recording -----------------------------------------------------

    def _wrap(self, layer_id: int, layer: Layer, fn):
        layers_of_span = self._span_layer
        parents = self._span_parent
        starts = self._span_start
        ends = self._span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            layers_of_span.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if layer.bytes_read:
                self._bytes[layer_id] += _bytes_read(args)
            if layer.track_min:
                self._min[layer_id] = min(self._min[layer_id], float(result))
            return result

        return functools.wraps(fn)(traced)

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    # -- patching ------------------------------------------------------

    def _resolve(self, layer: Layer):
        """(owner, attribute name, function) or None when absent."""
        try:
            owner = importlib.import_module(layer.module)
        except ImportError:
            return None
        *path, attr = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return None
        return owner, attr, fn

    def _set(self, container, key, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self) -> "Tracer":
        """Wrap every binding of every present layer."""
        self.absent = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "momreg" or name.startswith("momreg."))
        ]
        try:
            for layer_id, layer in enumerate(self.layers):
                found = self._resolve(layer)
                if found is None:
                    self.absent.append(layer.name)
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(layer_id, layer, fn)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is fn:
                                    self._set(value, dkey, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_ms, incl_ms and, where asked for,
        gb_computed / value_min.

        Self time is a span's duration minus the durations of the spans it
        directly caused; inclusive time is the whole duration.
        """
        size = len(self.layers)
        layer_of = np.asarray(self._span_layer, dtype=np.intp)
        parent = np.asarray(self._span_parent, dtype=np.intp)
        dur = np.asarray(self._span_end, dtype=np.float64) - np.asarray(
            self._span_start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(layer_of, weights=dur - child, minlength=size)
        incl_s = np.bincount(layer_of, weights=dur, minlength=size)
        calls = np.bincount(layer_of, minlength=size)
        out = {}
        for i, layer in enumerate(self.layers):
            row = {
                "calls": int(calls[i]),
                "self_ms": float(self_s[i]) * 1e3,
                "incl_ms": float(incl_s[i]) * 1e3,
            }
            if layer.bytes_read:
                row["gb_computed"] = self._bytes[i] / 1e9
            if layer.track_min:
                row["value_min"] = self._min[i] if calls[i] else 0.0
            out[layer.name] = row
        return out

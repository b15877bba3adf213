"""The benchmark's per-layer tracer still finds every momreg layer it names.

The tracer reports a layer whose function is gone as absent and skips it,
so a rename in momreg would silently zero that layer's metrics.  Only
``kernels.block_mult`` is absent: its kernel was deleted, and the layer
list in ``perfbench/layers.py`` still names it.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import momreg.cli  # noqa: E402,F401  (every momreg module is loaded before install)
import layers  # noqa: E402


def test_only_the_deleted_kernel_layer_is_absent():
    with layers.Tracer() as tracer:
        pass
    assert tracer.absent == ["kernels.block_mult"]

"""Evaluation toolkit for roadside perception systems against RTK-GPS truth.

Layers, bottom up: core (geometry and trajectory containers), ingest (CSV
wire format), matching (frame alignment and optimal assignment), latency
(paired-run delay and position-error estimation), metrics (MOTA/MOTP/IDF1/
HOTA report assembly), synth (scenario generation and error models), cli
(the `roadside-eval` command).

The public API is these modules: import a name from the module that defines
it (`from roadside_eval.metrics import compute_report`). The package itself
binds only `__version__` and the seven library modules; no other name is
importable from the top level.
"""

__version__ = "0.1.0"

# Importing any module of the package loads all seven library modules (not
# cli): the benchmark's tracer patches functions through sys.modules and needs
# each traced module loaded. This line can go once the benchmark imports each
# module it traces itself.
from . import core, errors, ingest, latency, matching, metrics, synth  # noqa: F401

"""Measurement-dependent hidden-variable models of qubit statistics.

A small research library with three layers: exact finite-dimensional quantum
mechanics as the verification oracle (`mdhv.quantum`), a suite of
measurement-dependent hidden-variable models behind one array interface
(`mdhv.models`), and numeric auditors plus a two-party channel-simulation
protocol built on top (`mdhv.analysis`, `mdhv.channel`).  The `mdhv` CLI
drives verification suites, correlation scans, protocol runs, and audits.
"""

from . import analysis, channel, quantum
from .models import (
    MODEL_REGISTRY,
    ModelContext,
    SimulationReport,
    create_model,
    run_experiment,
    singlet_context,
    stream,
)

__version__ = "0.1.0"

__all__ = [
    "MODEL_REGISTRY",
    "ModelContext",
    "SimulationReport",
    "analysis",
    "channel",
    "create_model",
    "quantum",
    "run_experiment",
    "singlet_context",
    "stream",
]

"""Measurement-dependent hidden-variable models and the shared interface."""

from __future__ import annotations

from .base import (
    SINGLET,
    AxisPair,
    HiddenVariableModel,
    ModelContext,
    OnticKind,
    SimulationReport,
    SingletFlag,
    SingletModel,
    json_form,
    run_experiment,
    singlet_context,
    singlet_correlation,
    stream,
    workers,
)
from .bellmermin import BellMermin
from .brans import BransSinglet
from .gbrans import GeneralizedBrans
from .hall import HallSinglet
from .interval import IntervalModel
from .ks import KochenSpecker1, KochenSpecker2

MODEL_REGISTRY: dict[str, type[HiddenVariableModel]] = {
    "brans": BransSinglet,
    "gbrans": GeneralizedBrans,
    "interval": IntervalModel,
    "ks1": KochenSpecker1,
    "ks2": KochenSpecker2,
    "hall": HallSinglet,
    "bellmermin": BellMermin,
}


def create_model(name: str) -> HiddenVariableModel:
    try:
        return MODEL_REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown model {name!r}; registered: {sorted(MODEL_REGISTRY)}") from None


__all__ = [
    "SINGLET",
    "AxisPair",
    "BellMermin",
    "BransSinglet",
    "GeneralizedBrans",
    "HallSinglet",
    "HiddenVariableModel",
    "IntervalModel",
    "KochenSpecker1",
    "KochenSpecker2",
    "MODEL_REGISTRY",
    "ModelContext",
    "OnticKind",
    "SimulationReport",
    "SingletFlag",
    "SingletModel",
    "create_model",
    "json_form",
    "run_experiment",
    "singlet_context",
    "singlet_correlation",
    "stream",
    "workers",
]

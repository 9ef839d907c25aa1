"""Singlet model whose hidden variable carries the outcome tags and settings.

The ontic value is (i, j, A_hat, B_hat): the two particles' outcome tags plus
the setting axes they were conditioned on.  The delta factors tying A_hat,
B_hat to the chosen axes are resolved analytically (the arrays store only the
tag pair's index j in OUTCOME_PAIRS; the axes are the context's), leaving the
density (1 - i j a.b)/4 against counting measure on the four tag pairs; the
responses are A = i and B = j.

Each particle's tag is correlated only with its local setting: the marginal
weight of tag i is tr(P_singlet |i><i|_a (x) I) = 1/2, a computation the
remote axis never enters.
"""

from __future__ import annotations

import numpy as np

from ..quantum import singlet_state, spin_eigenket
from .base import ModelContext, OutcomeIndexModel, SingletModel


class BransSinglet(SingletModel, OutcomeIndexModel):
    name = "brans"

    def marginal_density(self, particle: int, outcome: int, ctx: ModelContext) -> float:
        """Weight of one particle's tag: tr(P_singlet Pi_i (x) I) resp. (I (x) Pi_j).

        Evaluated through the reduced-state trace, which involves only the
        particle's local axis; remote-setting independence is exact.
        """
        self.validate_context(ctx)
        if particle not in (1, 2):
            raise ValueError("particle must be 1 or 2")
        axis = ctx.measurement.alice if particle == 1 else ctx.measurement.bob
        eig = spin_eigenket(axis, outcome)
        proj = eig.projector()
        eye = np.eye(2, dtype=complex)
        op = np.kron(proj, eye) if particle == 1 else np.kron(eye, proj)
        psi = singlet_state().amplitudes
        return float(np.vdot(psi, op @ psi).real)

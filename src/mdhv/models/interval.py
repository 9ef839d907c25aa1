"""Deterministic model on a one-dimensional interval of bins.

For |psi> measured in an orthonormal basis {|e_i>}, set x_i = |<e_i|psi>|.
The ontic variable lives on [0, sum_i x_i], split into consecutive bins of
length x_i; the density against Lebesgue measure is the constant x_i on
bin i (total mass sum x_i^2 = 1) and the response is the point mass on e_i
for points in bin i.  Boundary points belong to the lower bin.
"""

from __future__ import annotations

import numpy as np

from ..quantum import ProjectiveBasis, StateVector
from .base import HiddenVariableModel, ModelContext, categorical


class IntervalModel(HiddenVariableModel):
    name = "interval"
    preparations = (StateVector,)
    measurements = (ProjectiveBasis,)
    any_dimension = True

    def bin_edges(self, ctx: ModelContext) -> tuple[np.ndarray, np.ndarray]:
        """(x_i amplitudes-magnitudes, cumulative edges [0, c_1, ..., c_n])."""
        x = np.sqrt(self.born_weights(ctx))
        return x, np.concatenate([[0.0], np.cumsum(x)])

    def cells(self, *contexts: ModelContext) -> tuple[dict, np.ndarray]:
        """Midpoints ({"x"}) and widths of the cells cut by every context's bin edges, on each of
        which every density is constant.

        The distinct edges come from a sort and a neighbour mask, not from np.unique, whose first
        call in a process imports numpy.ma (about 13 ms).
        """
        edges = np.sort(np.concatenate([self.bin_edges(ctx)[1] for ctx in contexts]))
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
        return {"x": 0.5 * (edges[:-1] + edges[1:])}, np.diff(edges)

    def _bin_of(self, pos: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Bin of each position: the count of interior edges it lies above.

        A point on an edge belongs to the lower bin, and points outside
        [0, edges[-1]] get the nearest end bin.  Counting ~(pos <= edge)
        over edges[1:-1] equals the clamped binary search
        min(searchsorted(edges[1:], pos, "left"), K - 1) for K bins bit for
        bit, NaN included: NaN fails every `pos <= edge`, so it gets the
        last bin, where searchsorted sorts it too.  The cost is one
        comparison pass per bin, added into the narrowest unsigned integer
        that holds K - 1 and widened to intp once, as in `categorical`: at
        parity with the binary search near 256 bins.
        """
        idx = np.zeros(pos.shape, np.min_scalar_type(edges.size - 2))
        for edge in edges[1:-1]:
            idx += ~(pos <= edge)
        return idx.astype(np.intp)

    def sample_arrays(self, ctx: ModelContext, n: int, rng: np.random.Generator) -> dict:
        x, edges = self.bin_edges(ctx)
        j = categorical(x * x, n, rng)
        pos = edges[j] + rng.random(n) * x[j]
        return {"x": pos}

    def density_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        pos = np.asarray(arrays["x"], dtype=float)
        x, edges = self.bin_edges(ctx)
        idx = self._bin_of(pos, edges)
        out = x[idx]
        out = np.where((pos >= 0.0) & (pos <= edges[-1]), out, 0.0)
        return out

    def outcome_index_arrays(self, arrays: dict, ctx: ModelContext) -> np.ndarray:
        pos = np.asarray(arrays["x"], dtype=float)
        _, edges = self.bin_edges(ctx)
        return self._bin_of(pos, edges)

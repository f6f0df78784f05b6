"""Richardson extrapolation of limits sampled at shrinking steps."""

from __future__ import annotations

import numpy as np


def richardson_limit(f, h0, nodes=3, ratio=2.0, order=2):
    """Extrapolate ``f(h) -> f(0)`` from samples at h0, h0/ratio, ...

    Assumes an error expansion in powers of ``h**order``.  Used for limits
    that cannot be evaluated at the singular point itself, e.g. quantities
    on a surface of revolution as the axis is approached.
    """
    hs = [h0 / ratio**k for k in range(nodes)]
    table = [np.asarray(f(h), dtype=float) for h in hs]
    fac = ratio**order
    for level in range(1, nodes):
        table = [
            (fac**level * table[i + 1] - table[i]) / (fac**level - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]

"""Seeded point sets for the benchmark workloads.

The benchmark draws its own points instead of calling the library's
sampler, so a change to `azy5.siegel.sample_tau` cannot change a workload.
A point is tau = X + iY with

    Y = U(t) diag(lam, lam + gap) U(t)^T,   U(t) the rotation by angle t,

and X real symmetric.  The six parameters (lam, gap, t and the three
entries of X) form a Latin hypercube: each range is cut into n equal
slices, and each slice of each parameter holds exactly one of the n points
(point k takes the k-th slice of lam, a seeded permutation assigns the
slices of the others).  So the truncation radius at tau, which depends on
`lam` alone, takes the same values for every seed, and the cost of a whole
pass, which depends on all six, varies little from seed to seed.

The angle t stays in [0.3, pi/2 - 0.3], which keeps
|Im tau_12| = gap |sin 2t| / 2 >= 0.28 gap away from zero: on the locus
tau_12 = 0 both phi and the signed triple sum vanish identically.

Only numpy is used here; the caller turns the matrices into points of the
library under test.
"""

from __future__ import annotations

import math

import numpy as np

# (lam range, gap range, half-width of the entries of X) per kind of set.
GENERIC = ((1.0, 1.3), (0.3, 0.6), 0.1)
NEAR_BOUNDARY = ((0.12, 0.35), (0.4, 0.7), 0.3)

_ANGLE = (0.3, math.pi / 2 - 0.3)
# Draws per slice before point_set gives up on finding an accepted point.
MAX_DRAWS = 50


def _matrix(lam, gap, t, x11, x12, x22):
    c, s = math.cos(t), math.sin(t)
    u = np.array([[c, -s], [s, c]])
    y = u @ np.diag([lam, lam + gap]) @ u.T
    m = np.array([[x11, x12], [x12, x22]]) + 1j * y
    m[1, 0] = m[0, 1]
    return m


def point_set(seed, count, kind, accept=None):
    """`count` complex symmetric 2x2 matrices on a Latin hypercube of the
    parameters, point k with least eigenvalue of Im tau in the k-th slice
    of kind's range.  `accept`, when given, is a predicate on a matrix; a
    rejected point is redrawn in the same slice of lam, with the other
    parameters drawn from their whole ranges.  Deterministic in
    (seed, count, kind, accept)."""
    lam_range, gap_range, xhalf = kind
    ranges = (lam_range, gap_range, _ANGLE) + ((-xhalf, xhalf),) * 3
    rng = np.random.default_rng(seed)
    slices = [np.arange(count)] + [rng.permutation(count) for _ in ranges[1:]]
    out = []
    for k in range(count):
        for draw in range(MAX_DRAWS):
            p = [lo + (hi - lo) * (sl[k] + rng.uniform()) / count
                 if draw == 0 or d == 0 else rng.uniform(lo, hi)
                 for d, ((lo, hi), sl) in enumerate(zip(ranges, slices))]
            m = _matrix(*p)
            if accept is None or accept(m):
                out.append(m)
                break
        else:
            raise RuntimeError(f"no acceptable point in slice {k} after {MAX_DRAWS} draws")
    return out


def least_eigenvalue(m):
    """Least eigenvalue of Im m, by the closed form for a 2x2."""
    y = np.asarray(m).imag
    tr = y[0, 0] + y[1, 1]
    det = y[0, 0] * y[1, 1] - y[0, 1] * y[1, 0]
    return tr / 2 - math.sqrt(max(tr * tr / 4 - det, 0.0))


def to_json(m):
    """The CLI's --tau format for one point."""
    return {"g": 2, "entries": [[[z.real, z.imag] for z in row] for row in np.asarray(m)]}

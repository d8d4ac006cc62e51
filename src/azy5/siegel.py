"""Points of the genus-2 Siegel upper half-space, complex symmetric 2 x 2
matrices with positive definite imaginary part, and their seeded sampler.

The JSON interchange format is
    {"g": 2, "entries": [[[re, im], [re, im]], [[re, im], [re, im]]]}
with entries listed row-major.
"""

from __future__ import annotations

import cmath
from itertools import islice

from .numeric import sym2_eig_bounds

SAMPLE_SCALE = 0.1  # weight of the real part B of sample_tau's points


class SiegelPoint:
    """Immutable Siegel upper half-space point: mat is ((a, b), (b, d)) in
    Python complex, symmetrized on construction from any 2 x 2 iterable;
    lam_min is the least eigenvalue of Im tau, required positive.

    A point may additionally carry high-precision entries (nested mpc
    tuples, already symmetric) so that transformed points keep full
    precision along the mpmath code path; entries_mp() prefers them."""

    __slots__ = ("mat", "lam_min", "_mp")

    def __init__(self, entries, mp_entries=None):
        try:
            (a, b), (c, d) = [[complex(z) for z in row] for row in entries]
        except (TypeError, ValueError):
            raise ValueError("expected a 2x2 matrix") from None
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError("tau must be finite")
        if not abs(b - c) <= 1e-12 * (1 + max(map(abs, (a, b, c, d)))):
            raise ValueError("tau must be symmetric")
        a, b, d = (a + a) / 2, (b + c) / 2, (d + d) / 2  # (tau + tau^T) / 2
        lam, _ = sym2_eig_bounds(((a.imag, b.imag), (b.imag, d.imag)))
        if not lam > 0:
            raise ValueError("Im tau must be positive definite")
        object.__setattr__(self, "mat", ((a, b), (b, d)))
        object.__setattr__(self, "lam_min", lam)
        object.__setattr__(self, "_mp", mp_entries)

    def __setattr__(self, name, value):
        raise AttributeError("SiegelPoint is immutable")

    def __repr__(self):
        rows = "; ".join(" ".join(f"{z:.6g}" for z in row) for row in self.mat)
        return f"SiegelPoint[{rows}]"

    def entries_mp(self):
        """Entries as nested tuples of mpc: the carried high-precision data
        (read nowhere else), or the distinct double entries converted exactly."""
        if self._mp is not None:
            return self._mp
        import mpmath as mp
        exact = mp.libmp.from_float
        (a, b), (_, d) = self.mat
        a, b, d = (mp.make_mpc((exact(z.real), exact(z.imag))) for z in (a, b, d))
        return ((a, b), (b, d))

    def to_json(self):
        return {"g": 2,
                "entries": [[[z.real, z.imag] for z in row] for row in self.mat]}

    @classmethod
    def from_json(cls, data):
        try:
            if int(data["g"]) != 2:
                raise ValueError
            entries = [[complex(re, im) for re, im in row] for row in data["entries"]]
        except (KeyError, TypeError, ValueError):
            raise ValueError('expected a genus-2 point: "g": 2 and 2x2 entries, '
                             'each a [re, im] pair of numbers') from None
        return cls(entries)


# i times the identity, where every lattice sum splits into one-dimensional ones.
TAU_I = SiegelPoint(((1j, 0j), (0j, 1j)))


def sample_tau(rng):
    """Seeded generic sample: tau = i(1 + S) + SAMPLE_SCALE*B with S symmetric PSD
    of spectral norm <= 0.5 and B symmetric with entries in [-1, 1].  The
    imaginary part then has lambda_min >= 1."""
    import numpy as np
    A = rng.uniform(-1.0, 1.0, size=(2, 2))
    S = A @ A.T
    _, lam_max = sym2_eig_bounds(((S[0, 0], S[0, 1]), (S[1, 0], S[1, 1])))
    if lam_max > 0.5:
        S = S * (0.5 / lam_max)
    B = rng.uniform(-1.0, 1.0, size=(2, 2))
    B = (B + B.T) / 2
    return SiegelPoint(1j * (np.eye(2) + S) + SAMPLE_SCALE * B)


def sample_stream(seed):
    """sample_tau's points from one generator of seed, without end."""
    import numpy as np
    rng = np.random.default_rng(seed)
    while True:
        yield sample_tau(rng)


def sample_taus(seed, count):
    return list(islice(sample_stream(seed), count))

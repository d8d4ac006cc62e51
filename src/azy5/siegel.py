"""Points of the genus-2 Siegel upper half-space: complex symmetric 2 x 2
matrices with positive definite imaginary part.

The JSON interchange format is
    {"g": 2, "entries": [[[re, im], [re, im]], [[re, im], [re, im]]]}
with entries listed row-major.
"""

from __future__ import annotations

import cmath

import numpy as np

from .numeric import sym2_eig_bounds

SAMPLE_SCALE = 0.1  # weight of the real part B of sample_tau's points


class SiegelPoint:
    """Immutable Siegel upper half-space point.  Entries are stored as a
    numpy complex matrix, symmetrized on construction; lam_min is the
    smallest eigenvalue of the imaginary part and is required positive.

    A point may additionally carry high-precision entries (nested mpc
    tuples, already symmetric) so that transformed points keep full
    precision along the mpmath code path; entries_mp() prefers them."""

    __slots__ = ("mat", "lam_min", "_mp")

    def __init__(self, entries, mp_entries=None):
        m = np.asarray(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        z = m.ravel().tolist()
        if not all(map(cmath.isfinite, z)):
            raise ValueError("tau must be finite")
        if not abs(z[1] - z[2]) <= 1e-12 * (1 + max(map(abs, z))):
            raise ValueError("tau must be symmetric")
        m = (m + m.T) / 2
        y = m.imag
        lam, _ = sym2_eig_bounds(((y[0, 0], y[0, 1]), (y[1, 0], y[1, 1])))
        if not lam > 0:
            raise ValueError("Im tau must be positive definite")
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "lam_min", float(lam))
        object.__setattr__(self, "_mp", mp_entries)
        self.mat.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SiegelPoint is immutable")

    def __repr__(self):
        rows = "; ".join(" ".join(f"{z:.6g}" for z in row) for row in self.mat)
        return f"SiegelPoint[{rows}]"

    def entries(self):
        """Entries as nested tuples of Python complex."""
        return tuple(tuple(complex(z) for z in row) for row in self.mat)

    def entries_mp(self):
        """Entries as nested tuples of mpc: the carried high-precision data
        (read nowhere else), or the distinct double entries converted exactly."""
        if self._mp is not None:
            return self._mp
        import mpmath as mp
        exact = mp.libmp.from_float
        a, b, d = (mp.make_mpc((exact(z.real), exact(z.imag)))
                   for z in self.mat.take([0, 1, 3]).tolist())
        return ((a, b), (b, d))

    def to_json(self):
        return {"g": 2,
                "entries": [[[z.real, z.imag] for z in row] for row in self.mat]}

    @classmethod
    def from_json(cls, data):
        rows = data["entries"]
        if int(data["g"]) != 2 or len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError('expected a genus-2 point: "g": 2 and 2x2 entries')
        return cls([[complex(e[0], e[1]) for e in row] for row in rows])


# i times the identity, where every lattice sum splits into one-dimensional ones.
TAU_I = SiegelPoint(1j * np.eye(2))


def sample_tau(rng):
    """Seeded generic sample: tau = i(1 + S) + SAMPLE_SCALE*B with S symmetric PSD
    of spectral norm <= 0.5 and B symmetric with entries in [-1, 1].  The
    imaginary part then has lambda_min >= 1."""
    A = rng.uniform(-1.0, 1.0, size=(2, 2))
    S = A @ A.T
    _, lam_max = sym2_eig_bounds(((S[0, 0], S[0, 1]), (S[1, 0], S[1, 1])))
    if lam_max > 0.5:
        S = S * (0.5 / lam_max)
    B = rng.uniform(-1.0, 1.0, size=(2, 2))
    B = (B + B.T) / 2
    return SiegelPoint(1j * (np.eye(2) + S) + SAMPLE_SCALE * B)


def sample_taus(seed, count):
    rng = np.random.default_rng(seed)
    return [sample_tau(rng) for _ in range(count)]

"""Deterministic random-number plumbing.

Characterization of a simulated DRAM module must be reproducible: running the
same test twice on the same module has to observe the same weak cells, the
same per-row thresholds, and the same jitter, exactly as re-testing a
physical chip would.  We achieve this with a *seed tree*: every named entity
(module, bank, row, experiment) derives a child seed from its parent's seed
and its own name, so the randomness is a pure function of the path from the
root.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(parent_seed: int, *path: object) -> int:
    """Derive a child seed from ``parent_seed`` and a path of labels.

    The derivation is a SHA-256 over the parent seed and the string forms of
    the path components, truncated to 64 bits.  It is stable across runs,
    platforms, and Python versions.  Any integer seed works, numpy
    scalars included: ``derive_seed(np.int32(-1), ...)`` equals
    ``derive_seed(-1, ...)``.
    """
    hasher = hashlib.sha256()
    hasher.update(str(operator.index(parent_seed) & _MASK64).encode())
    for part in path:
        hasher.update(b"/")
        hasher.update(str(part).encode())
    return int.from_bytes(hasher.digest()[:8], "little")


class SeedTree:
    """A node in a deterministic seed hierarchy.

    >>> root = SeedTree(42)
    >>> a = root.child("module", "H5")
    >>> b = root.child("module", "H5")
    >>> a.seed == b.seed
    True
    >>> a.seed == root.child("module", "S6").seed
    False
    """

    def __init__(self, seed: int) -> None:
        # operator.index first: a signed numpy scalar cannot take the
        # 64-bit mask itself (np.int64(7) & _MASK64 overflows).
        self.seed = operator.index(seed) & _MASK64

    def child(self, *path: object) -> "SeedTree":
        """Return the child node addressed by ``path``."""
        return SeedTree(derive_seed(self.seed, *path))

    def generator(self, *path: object) -> np.random.Generator:
        """Return a numpy ``Generator`` seeded by the child at ``path``.

        Constructed as ``Generator(PCG64(seed))`` — exactly what
        ``default_rng(seed)`` builds, so the streams are bit-identical —
        but without ``default_rng``'s dispatch overhead, which dominates
        when sampling per-row traits constructs one generator per row.
        """
        return np.random.Generator(
            np.random.PCG64(derive_seed(self.seed, *path)))

    def uniform(self, *path: object) -> float:
        """A single deterministic uniform draw in [0, 1) for ``path``."""
        return float(self.generator(*path).random())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedTree(seed={self.seed:#x})"

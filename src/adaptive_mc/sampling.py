"""
Seeded, reproducible random streams and uniform index-set sampling.

Every random draw in the package flows through a generator built here.
Generators are Philox4x64 counter-based bit generators keyed through
``numpy.random.SeedSequence(entropy=seed, spawn_key=stream)``, so a given
(seed, stream) pair yields the identical sequence on every run and
platform.  Parallel consumers never share a generator; each derives its
own substream from the root seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngState", "as_generator", "sample_uniform_subset"]


class RngState:
    """Handle for a deterministic random stream.

    A stream is identified by a 64-bit ``seed`` plus a tuple of
    non-negative ``stream`` integers (consumer labels, trial indices, and
    so on).  ``generator()`` returns a fresh generator positioned at the
    start of the stream, so repeated calls replay the same sequence.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed, *stream):
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)

    def _sequence(self):
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)

    def generator(self):
        return np.random.Generator(np.random.Philox(self._sequence()))

    def derived_seed(self):
        """A 64-bit integer seed drawn from this stream, for consumers
        that take a plain integer seed (such as ``LrebnConfig.seed``)."""
        return int(self._sequence().generate_state(1, dtype=np.uint64)[0])

    def substream(self, *indices):
        """Derive an independent stream labelled by extra indices."""
        return RngState(self.seed, *self.stream, *indices)

    def __repr__(self):
        return f"RngState(seed={self.seed}, stream={self.stream})"


def as_generator(rng):
    """Coerce an RngState or a Generator into a Generator.

    An RngState gives a fresh generator at the start of its stream; a
    Generator passes through and keeps its state.  Integer seeds are
    refused: callers wrap them in an RngState.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngState):
        return rng.generator()
    raise TypeError(f"cannot build a generator from {type(rng).__name__}")


def sample_uniform_subset(m, d, rng):
    """Uniformly random d-subset of {0, ..., m-1}, sorted ascending.

    Sampling is without replacement via a Fisher-Yates shuffle of the
    index array truncated to its first ``d`` entries, which is exactly
    uniform over d-subsets.

    Parameters
    ----------
    m : int
        Size of the ground set; must be >= 1.
    d : int
        Subset size; requires 1 <= d <= m.  Callers clamp their budgets
        before reaching this layer.
    rng : RngState or numpy Generator
        Drawn from as ``as_generator`` says: an RngState from the start of
        its stream, a Generator from its current state.

    Returns
    -------
    ndarray of int64, shape (d,)
    """
    m = int(m)
    d = int(d)
    if m < 1:
        raise ValueError("m must be at least 1")
    if d <= 0:
        raise ValueError("subset size d must be positive")
    if d > m:
        raise ValueError(f"subset size d={d} exceeds ground-set size m={m}")
    gen = as_generator(rng)
    picked = gen.permutation(m)[:d]
    return np.sort(picked).astype(np.int64)

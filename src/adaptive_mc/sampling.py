"""
Seeded, reproducible random streams, uniform index-set sampling and the
row patterns the samples are read on.

Every random draw in the package flows through a generator built here.
Generators are Philox4x64 counter-based bit generators keyed through
``numpy.random.SeedSequence(entropy=seed, spawn_key=stream)``, so a given
(seed, stream) pair yields the identical sequence on every run and
platform.  Parallel consumers never share a generator; each derives its
own substream from the root seed.  ``_philox_keys`` hashes the keys of a
whole array of substreams ``(*stream, t)`` in one numpy pass, bit for bit
the keys SeedSequence gives, so a consumer with many short substreams
(the lemma suite's trials) re-keys one Philox instead of building a
SeedSequence, a Philox and a Generator for each.

One rule per kind of parameter a caller passes in, each raising
``ValueError`` naming the parameter and converting nothing it refuses:

* ``_check_int`` for an integer (a size, a count, an index, a seed or a
  stream label): an ``int`` or a numpy integer at or above its bound.  A
  bool, a float or anything else is refused; nothing is truncated.
* ``_check_real`` for a real number (a noise level, a failure rate, a
  coherence bound, an angle, a weight): an ``int``, a ``float`` or a
  numpy integer or float, returned as a Python float inside a stated
  open or closed range.  A bool, a str, None or a complex number is
  refused, and NaN lies in no range.
* ``_check_mode`` for a named mode: a str in the owning module's tuple
  of mode names.
* ``_check_real_matrix`` for a matrix of real numbers (a hidden matrix,
  a reference matrix): an array or array-like of an integer or floating
  dtype.  A bool, complex, str, bytes, object or datetime array is
  refused before any copy, never parsed or cast.

A row pattern is a validated index set: a strictly increasing, read-only
``intp`` array over immutable memory, so no one can make it writable
again.  ``_check_index_set`` is the one place that validates index sets
and makes patterns; ``sample_uniform_subset`` returns its draws through
it, and the restricted solver and the oracle pass a pattern on with one
comparison of its last entry against their dimension.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["RngState", "as_generator", "sample_uniform_subset"]


class RngState:
    """Handle for a deterministic random stream.

    A stream is identified by a non-negative integer ``seed`` plus a
    tuple of non-negative ``stream`` integers (consumer labels, trial
    indices, and so on), each held to ``_check_int``: a bool, a float or
    a negative value raises ``ValueError``.  ``generator()`` returns a
    fresh generator positioned at the start of the stream, so repeated
    calls replay the same sequence.
    """

    __slots__ = ("seed", "stream")

    def __init__(self, seed, *stream):
        self.seed = _check_int("seed", seed, 0)
        self.stream = tuple(_check_int("stream label", s, 0) for s in stream)

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


# The constants of numpy's SeedSequence hash, over 32-bit words.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value):
    """The little-endian 32-bit words of a non-negative int ([0] for 0)."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hasher(hc, mult):
    """SeedSequence's word hash, whose constant ``hc`` advances by ``mult``
    at every call."""
    def hash_word(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * mult & _M32
        v = v * hc & _M32
        return v ^ v >> 16
    return hash_word


def _mix(x, y):
    r = (x * _MIX_L - y * _MIX_R) & _M32
    return r ^ r >> 16


def _philox_keys(state, indices):
    """Philox keys of the substreams ``state.substream(t)`` for a 1-D
    array of indices t below 2**64, as a (len(indices), 2) uint64 array.

    Row i is bit for bit ``SeedSequence(entropy=state.seed,
    spawn_key=(*state.stream, t)).generate_state(2, np.uint64)``, the key
    that ``state.substream(t).generator()`` runs on.  This is numpy's
    SeedSequence hash, with each 32-bit word held in a Python int or a
    uint64 array and masked.  The words are the seed's, padded with zeros
    to 4, then each label's and the index's.  The first 4 seed a pool of
    4, which is cross-mixed; each later word is hashed and mixed into
    every pool word; the hashed pool is the key.  Only the index's word
    (two words from 2**32 on) differs between trials, so the words before
    it are hashed once, as ints.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)

    def absorb(pool, word):
        return [_mix(p, hashmix(word)) for p in pool]

    words = _words(state.seed)
    words += [0] * (4 - len(words)) + [w for s in state.stream
                                       for w in _words(s)]
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = absorb(pool, w)
    indices = np.asarray(indices, dtype=np.uint64)
    pool = absorb(pool, indices & _M32)
    high = indices >> 32
    if high.any():
        pool = [np.where(high > 0, two, one)
                for one, two in zip(pool, absorb(pool, high))]
    a, b, c, d = map(_hasher(_INIT_B, _MULT_B), pool)
    return np.stack([a | b << 32, c | d << 32], axis=1)


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


class _Rows(bytes):
    """The memory of a row pattern; its type marks the array over it as
    validated."""

    __slots__ = ()


def _check_int(name, value, low=1):
    """``value`` as a Python int if it is an ``int`` or a numpy integer
    of at least ``low`` (0 or 1); else ``ValueError`` naming ``name``.

    A bool or a float is refused, never truncated, even where it holds a
    whole number.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer; got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be a "
                         f"{'positive' if low else 'non-negative'} integer; "
                         f"got {value}")
    return operator.index(value)


def _check_real(name, value, low=None, high=np.inf, ends="[]"):
    """``value`` as a Python float if it is an ``int``, a ``float`` or a
    numpy integer or float from ``low`` to ``high``, each end closed or
    open as ``ends`` says ("[]", "[)", "(]" or "()"); else ``ValueError``
    naming ``name``.

    A bool, a numpy bool, a str, None or a complex number is refused,
    never converted, even where it would convert to a number in range.
    Every comparison with NaN is false, so NaN lies in no range, and an
    int past the float range counts as an infinity of its sign.  With
    no ``low`` only the kind is checked: ``synthetic._check_epsilon``
    states epsilon's range, and its message, itself.
    """
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number; got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = np.inf if value > 0 else -np.inf
    if low is not None and not (
            low < value < high or value == low and ends[0] == "["
            or value == high and ends[1] == "]"):
        raise ValueError(
            f"{name} must satisfy {low:g} {'<=' if ends[0] == '[' else '<'} "
            f"{name} {'<=' if ends[1] == ']' else '<'} {high:g}; got {value}")
    return value


def _check_mode(name, value, modes):
    """``value`` as a Python str if it is a str in ``modes``, the owning
    module's tuple of mode names; else ``ValueError`` naming ``name`` and
    the modes."""
    if not (isinstance(value, str) and value in modes):
        raise ValueError(f"{name} must be one of {', '.join(modes)}; "
                         f"got {value!r}")
    return str(value)


def _check_real_matrix(name, a):
    """``a`` as an array if its dtype is an integer or floating one; else
    ``ValueError`` naming ``name`` and the dtype.

    An array passes through as it is.  A bool array, whose entries would
    cast to 0.0 and 1.0, a complex one, whose imaginary parts a cast
    would drop, and a str, bytes, object or datetime one, which a cast
    would parse or turn into day counts, are refused.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must have an integer or floating dtype; "
                         f"got {a.dtype}")
    return a


def _check_index_set(omega, ambient, range_error=ValueError):
    """Validate a strictly increasing index set into [0, ambient) and
    return it as a row pattern.

    The entries must already be integers: a float or bool array is
    rejected with ``ValueError``, never rounded or cast.  An entry outside
    [0, ambient) raises ``range_error``; every other defect raises
    ``ValueError``.  A pattern is returned as it is once its last entry is
    below ``ambient``; anything else, a view of a pattern included, is
    copied into a new pattern and validated there.
    """
    # A view's base is the array it was taken from, so only the array
    # made over the bytes below has them as its base.
    if type(getattr(omega, "base", None)) is _Rows:
        if omega[-1] >= ambient:
            raise range_error(f"index set entries must lie in [0, {ambient})")
        return omega
    omega = np.asarray(omega)
    if omega.ndim != 1 or omega.size == 0:
        raise ValueError("index set must be a nonempty 1-D array")
    if omega.dtype.kind not in "iu":
        raise ValueError(
            f"index set must have an integer dtype; got {omega.dtype}")
    rows = np.frombuffer(_Rows(memoryview(omega.astype(np.intp, copy=False))),
                         dtype=np.intp)
    if rows[0] < 0 or rows[-1] >= ambient:
        raise range_error(f"index set entries must lie in [0, {ambient})")
    if (rows[1:] <= rows[:-1]).any():
        raise ValueError("index set must be strictly increasing")
    return rows


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
        before reaching this layer.  Both sizes are held to
        ``_check_int``: a float or bool ``m`` or ``d`` raises
        ``ValueError``, never truncated; numpy integers are taken.
    rng : RngState or numpy Generator
        Drawn from as ``as_generator`` says: an RngState from the start of
        its stream, a Generator from its current state.

    Returns
    -------
    ndarray of intp, shape (d,)
        A row pattern: read-only for good, and passed on by the restricted
        solver and the oracle without a second validation.
    """
    m = _check_int("m", m)
    d = _check_int("d", d)
    if d > m:
        raise ValueError(f"subset size d={d} exceeds ground-set size m={m}")
    gen = as_generator(rng)
    return _check_index_set(np.sort(gen.permutation(m)[:d]), m)

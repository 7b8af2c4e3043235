"""
Synthetic problem instances and the observation oracle.

An instance is a hidden matrix ``M = L + zeta`` where ``L`` has rank r and
unit-norm columns and every noise column satisfies ``||zeta_col||_2 <=
epsilon`` with ``0 <= epsilon < 1/4``; an instance keeps ``L`` and ``M``
and reads the noise as ``M - L``.  The rank r is the dimension of its true
basis.  The algorithm reads ``M`` only through an ``ObservationOracle``,
whose per-column read records count each entry once: observation counts
are exact.

Also provides the plain-text matrix file format and instance bundles
(directories holding ``L.mat``, ``M.mat`` and a ``meta`` key=value file).
"""

from __future__ import annotations

import mmap
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import OrthonormalBasis, _block_rows, coherence, orthonormalize
from .sampling import (RngState, _check_index_set, _check_int, _check_mode,
                       _check_real, _check_real_matrix, as_generator)

__all__ = [
    "MAX_EPSILON",
    "ProblemInstance",
    "ObservationOracle",
    "generate_low_rank",
    "add_bounded_noise",
    "make_instance",
    "write_matrix",
    "read_matrix",
    "save_instance",
    "load_instance",
]

# The bounded-noise model requires epsilon < 1/4.
MAX_EPSILON = 0.25

# The named modes of generate_low_rank and add_bounded_noise, each
# signature's default first.
_COHERENCE_MODES = ("incoherent", "spiked")
_NOISE_MODES = ("sphere", "scaled-gaussian")

# Stream labels for instance construction.
_STREAM_BASIS = 1
_STREAM_NOISE = 3


@dataclass(frozen=True)
class ProblemInstance:
    """A generated completion problem.

    Attributes
    ----------
    L : ndarray (m, n)
        Ground-truth rank-r matrix with unit-norm columns.
    M : ndarray (m, n)
        The observable matrix ``L + zeta``.
    true_basis : OrthonormalBasis
        Orthonormal basis of the column space of ``L``.
    epsilon : float
    """

    L: np.ndarray
    M: np.ndarray
    true_basis: OrthonormalBasis
    epsilon: float

    @property
    def zeta(self):
        """The noise ``M - L``, built on every read."""
        return self.M - self.L

    @property
    def shape(self):
        return self.L.shape

    @property
    def r(self):
        """The rank: the dimension of ``true_basis``."""
        return self.true_basis.dim


class ObservationOracle:
    """Gatekeeper over a hidden matrix that counts revealed entries.

    Observations are purchases: re-reading an already revealed entry does
    not increase the count, and revealing a full column after a partial
    read only adds the remainder.  The oracle keeps no counter.  Its one
    fact is a read record per column: the tuple of row patterns read so
    far, or ``None`` once the column was read in full (by ``column`` or by
    a read of all m rows).  ``entry_count`` sums the records: m for a
    full column, the size of a single read, the size of the union of
    several.  The lock serializes the records' writes and that sum.

    Every read's rows become a row pattern (see ``sampling``) before
    anything is charged, and its record keeps that pattern by reference:
    a pattern cannot change.  A pattern passed in, as ``run_lrebn`` passes
    the one it drew, costs one comparison and no copy; any other index
    set is validated into a new pattern.

    Every read is confined to one column, so the hidden matrix is stored
    column-major: each read gathers from contiguous memory.

    The hidden matrix must hold integers or floats
    (``sampling._check_real_matrix``): a bool, complex, str, bytes, object
    or datetime array raises ``ValueError`` before anything is copied, as
    does a NaN or an infinite entry.

    The oracle keeps a private, read-only copy: later writes to the
    caller's array do not change what it reveals.  The copy is made one
    block of about a megabyte of rows at a time.  Each block of the
    caller's rows is first checked for non-finite entries, a sequential
    read that brings it into cache, and then scattered into the
    column-major store.  At n = 400 the scatter reads the source at a
    3,200-byte stride, which the hardware prefetcher does not follow from
    main memory; from cache it is cheap.  The check allocates no m x n
    mask.  A caller who writes to the array while the constructor runs is
    racing with the copy, as with any numpy copy.
    """

    def __init__(self, hidden):
        hidden = _check_real_matrix("hidden matrix", hidden)
        if hidden.ndim != 2:
            raise ValueError("hidden matrix must be 2-dimensional")
        store = np.empty(hidden.shape, order="F")
        height = _block_rows(hidden.shape[1])
        for i0 in range(0, hidden.shape[0], height):
            rows = hidden[i0:i0 + height]
            if not np.isfinite(rows).all():
                raise ValueError("hidden matrix entries must be finite")
            store[i0:i0 + height] = rows
        store.flags.writeable = False
        self._hidden = store
        self._reads = [()] * hidden.shape[1]   # per column; None = full
        self._lock = threading.Lock()

    @property
    def shape(self):
        return self._hidden.shape

    @property
    def entry_count(self):
        """Number of distinct entries revealed so far."""
        m = self._hidden.shape[0]
        # A single read counts its own size: an index set has no repeats.
        with self._lock:
            return sum(m if rows is None
                       else np.unique(np.concatenate(rows)).size
                       if len(rows) > 1 else sum(a.size for a in rows)
                       for rows in self._reads)

    def _check_col(self, j):
        if _check_int("column index j", j, 0) >= self._hidden.shape[1]:
            raise IndexError(f"column index {j} out of range")

    def _read(self, omega, j):
        """Charge and return column ``j`` at rows ``omega``: the one read
        path of ``entry`` and ``entries``, which subclasses may override,
        so neither calls the other."""
        self._check_col(j)
        m = self._hidden.shape[0]
        rows = _check_index_set(omega, m, IndexError)
        full = rows.size == m
        with self._lock:
            held = self._reads[j]
            if held is not None:
                self._reads[j] = None if full else held + (rows,)
        # A row pattern is strictly increasing in [0, m), so one of size m
        # is every row: a copy of the column, not a gather.
        return self._hidden[:, j].copy() if full else self._hidden[:, j][rows]

    def entry(self, i, j):
        """Reveal and return the entry at (i, j), under the rules of
        ``entries``."""
        return float(self._read([i], j)[0])

    def entries(self, omega, j):
        """Reveal and return the entries of column ``j`` at rows ``omega``.

        ``omega`` must be a strictly increasing set of integer row indices
        (no duplicates), and ``j`` an integer column index as ``column``
        takes it.  A row or column past the end raises ``IndexError``; any
        other defect, a float or bool ``omega`` or ``j`` included,
        ``ValueError``.  Nothing is charged for a rejected read.
        """
        return self._read(omega, j)

    def column(self, j):
        """Reveal and return the full column ``j``.

        ``j`` is held to ``sampling._check_int`` (an ``int`` or numpy
        integer, at least 0): a bool, a float or a negative ``j`` raises
        ``ValueError``, and ``j >= n`` raises ``IndexError``, before
        anything is charged.
        """
        self._check_col(j)
        with self._lock:
            self._reads[j] = None
        return self._hidden[:, j].copy()


def generate_low_rank(m, n, r, rng, coherence_mode="incoherent",
                      spike_index=0, spike_weight=0.99):
    """Rank-r matrix with unit-norm columns, plus its column-space basis.

    The matrix is ``B @ C`` with ``B`` an m x r orthonormal basis and
    ``C`` an r x n coefficient matrix with unit-norm columns (so the
    product's columns are unit norm).  Its one resample is the leading
    r x r block of ``C``, redrawn until its smallest singular value is at
    least 0.1 so the full rank shows within the first r columns.  Any
    other degenerate draw has probability zero and raises ``RuntimeError``.

    Parameters
    ----------
    m, n, r : int
        Shape and rank, with ``1 <= r <= min(m, n)``.  Each is held to
        ``sampling._check_int``: a float or bool raises ``ValueError``
        before any draw, never truncated; numpy integers are taken.
    coherence_mode : {"incoherent", "spiked"}
        Held to ``sampling._check_mode``: any other value, a non-str
        included, raises ``ValueError``.  "incoherent" orthonormalizes a
        Gaussian block.  "spiked" blends the first basis direction toward
        the standard vector ``e_{spike_index}`` with the given weight,
        driving the coherence toward its maximum m / r.  In spiked mode
        ``spike_index`` must be an integer in ``[0, m)`` and
        ``spike_weight`` a real number in ``[0, 1]`` by
        ``sampling._check_real`` (a bool, a str or NaN is refused, a numpy
        float is taken as a Python float); anything else raises
        ``ValueError`` before any draw.

    Returns
    -------
    (L, basis) : (ndarray (m, n), OrthonormalBasis)
    """
    _check_rank(r, m, n)
    if _check_mode("coherence_mode", coherence_mode,
                   _COHERENCE_MODES) == "spiked":
        if _check_int("spike_index", spike_index, 0) >= m:
            raise ValueError(
                f"spike_index must satisfy 0 <= spike_index < m; "
                f"got {spike_index}")
        spike_weight = _check_real("spike_weight", spike_weight, 0.0, 1.0)
    gen = as_generator(rng)
    # The m x n output comes first: allocated after the small draws below,
    # it finds a freed m x n block (an earlier oracle's store, say) split
    # by them and takes fresh memory instead.
    L = np.empty((m, n))

    raw = gen.standard_normal((m, r))
    if coherence_mode == "spiked":
        g = gen.standard_normal(m)
        g /= np.linalg.norm(g)
        spike = np.zeros(m)
        spike[spike_index] = 1.0
        raw[:, 0] = spike_weight * spike + (1.0 - spike_weight) * g
    basis = orthonormalize(raw)
    if basis.dim != r:
        raise RuntimeError(f"drew a basis block of rank {basis.dim} < r = {r}")

    coeff = gen.standard_normal((r, n))
    for _ in range(256):
        if np.linalg.svd(coeff[:, :r], compute_uv=False)[-1] >= 0.1:
            break
        coeff[:, :r] = gen.standard_normal((r, r))
    else:
        raise RuntimeError("failed to draw a well-conditioned leading block")
    norms = np.linalg.norm(coeff, axis=0)
    if not norms.all():
        raise RuntimeError("drew an all-zero coefficient column")
    coeff /= norms

    return np.matmul(basis.matrix, coeff, out=L), basis


def _check_rank(r, m, n):
    """ValueError unless ``m`` and ``n`` are positive integers and the
    integer rank ``r`` lies in [1, min(m, n)].  The rank's range is
    tested first, so an ``r`` of 0 or NaN gets the message that states
    the bound."""
    if not 1 <= r <= min(_check_int("m", m), _check_int("n", n)):
        raise ValueError(f"rank r must satisfy 1 <= r <= {min(m, n)} = "
                         f"min(m, n) with m = {m}, n = {n}; got {r}")
    _check_int("r", r)


def _check_epsilon(epsilon):
    """``epsilon`` as a Python float; ValueError unless it is a real
    number by ``sampling._check_real`` that lies in [0, 1/4)."""
    epsilon = _check_real("epsilon", epsilon)
    if not 0.0 <= epsilon < MAX_EPSILON:
        raise ValueError(
            f"epsilon must be < {MAX_EPSILON} and non-negative (bounded-noise "
            f"model precondition); got {epsilon}"
        )
    return epsilon


def add_bounded_noise(L, epsilon, rng, true_basis, mode="sphere"):
    """Wrap a unit-column low-rank matrix into a noisy ProblemInstance.

    Parameters
    ----------
    epsilon : float
        Per-column noise bound; the model requires ``0 <= epsilon < 1/4``.
        A real number by ``sampling._check_real``, kept as a Python float.
    true_basis : OrthonormalBasis
        Basis of the column space of ``L``; its dimension is the rank r,
        which must lie in ``[1, min(m, n)]``.
    mode : {"sphere", "scaled-gaussian"}
        Held to ``sampling._check_mode``.  "sphere" puts every noise
        column exactly on the radius-epsilon sphere (the worst case).
        "scaled-gaussian" rescales a Gaussian column to a uniform-random
        radius in [0, epsilon].  Either way the Gaussian is drawn once:
        an all-zero column has probability zero and raises
        ``RuntimeError``.

    The m x n Gaussian draw is the buffer that becomes ``M``.  The noise
    norms are row-sequential sums of squares over blocks of about a
    megabyte of rows, bit-identical to ``np.linalg.norm(zeta, axis=0)``
    (see ``_column_norms``), so for n > 1 set-up makes no other m x n
    array; a single column is reduced in one block, as numpy sums it
    pairwise.  ``einsum``
    is not used: it rounds differently, and the norms set the instance's
    bits.  Each block is then scaled and gets ``L`` added while in cache.
    With ``epsilon == 0``, ``M`` is ``L + 0.0``, the bits of
    ``zeros + L`` (``-0.0`` becomes ``+0.0``).
    """
    L = np.asarray(L, dtype=float)
    epsilon = _check_epsilon(epsilon)
    _check_mode("mode", mode, _NOISE_MODES)
    m, n = L.shape
    if true_basis.ambient_dim != m:
        raise ValueError(f"true basis has shape {true_basis.matrix.shape}; "
                         f"expected ({m}, r)")
    _check_rank(true_basis.dim, m, n)
    gen = as_generator(rng)

    if epsilon == 0.0:
        M = L + 0.0
    else:
        M = gen.standard_normal((m, n))
        norms = _column_norms(M)
        if not norms.all():
            raise RuntimeError("drew an all-zero noise column")
        if mode == "sphere":
            scale = epsilon / norms
        else:
            scale = gen.uniform(0.0, epsilon, size=n) / norms
        height = _block_rows(n)
        for i0 in range(0, m, height):
            block = M[i0:i0 + height]
            block *= scale
            block += L[i0:i0 + height]

    inst = ProblemInstance(L=L, M=M, true_basis=true_basis, epsilon=epsilon)
    _check_instance(inst)
    return inst


def _column_norms(a):
    """Column 2-norms of the C-ordered matrix ``a``, bit-identical to
    ``np.linalg.norm(a, axis=0)``, summed in row blocks.

    numpy reduces an axis-0 sum of more than one column one row after
    another, so each block's squares get the running sums added to their
    first row and are then reduced down the rows: the additions are the
    same, in the same order.  A single column is summed pairwise, so it
    is reduced in one block.
    """
    m, n = a.shape
    height = m if n == 1 else _block_rows(n)
    sums = np.zeros(n)
    for i0 in range(0, m, height):
        sq = a[i0:i0 + height] * a[i0:i0 + height]
        sq[0] += sums
        np.add.reduce(sq, axis=0, out=sums)
    return np.sqrt(sums)


def _check_instance(inst):
    """Assert the model invariants after generation.

    Columns of ``L`` must be unit norm and noise columns ``M - L`` at most
    ``epsilon`` long; every comparison is negated so that a NaN fails it.
    The rank part is proved in O(m n r) from the true basis ``B`` (m x r)
    instead of a full SVD of ``L``.  With ``C = B^T L``, ``E = L - B C``
    and ``g = ||B^T B - I||_F``, Weyl's inequality gives, for any ``B``
    with r columns:

    * ``sigma_{r+1}(L) <= ||E||_2 <= ||E||_F``, since ``B C`` has rank at
      most r.  Rejecting ``||E||_F > 1e-9`` therefore rejects every
      ``L`` with ``sigma_{r+1}(L) > 1e-9``.
    * ``sigma_r(L) >= sigma_min(B) sigma_r(C) - ||E||_2
      >= sqrt(max(0, 1 - g)) sigma_r(C) - ||E||_F``, since
      ``sigma_min(B)^2 >= 1 - ||B^T B - I||_2 >= 1 - g``.  Rejecting a
      lower bound below 1e-6 therefore rejects every ``L`` with
      ``sigma_r(L) < 1e-6``.

    So each check is at least as strict as the same tolerance on the
    singular values of ``L``.  The first also rejects a ``true_basis``
    that does not span the column space of ``L``, which the singular
    values alone cannot see.

    The column norms of ``L`` and of ``M - L`` and ``||E||_F`` come from
    one pass over row blocks of about a megabyte, worked in one block
    buffer, so the check allocates no m x n temporary.  These sums set no bits, so they use ``einsum``.
    The unit-norm verdict comes first: a NaN or inf in ``L`` is reported
    as a column that is not unit norm.
    """
    L = inst.L
    r = inst.r
    B = inst.true_basis.matrix
    # A non-finite entry turns its sums into inf or NaN, which the
    # verdicts below reject, so the arithmetic's warnings are silenced.
    unit_sq = np.zeros(L.shape[1])
    noise_sq = np.zeros(L.shape[1])
    resid_sq = 0.0
    height = _block_rows(L.shape[1])
    buf = np.empty((min(height, L.shape[0]), L.shape[1]))
    with np.errstate(invalid="ignore", over="ignore"):
        C = B.T @ L
        for i0 in range(0, L.shape[0], height):
            rows = slice(i0, i0 + height)
            block = L[rows]
            t = buf[:len(block)]
            unit_sq += np.einsum("ij,ij->j", block, block)
            np.subtract(inst.M[rows], block, out=t)
            noise_sq += np.einsum("ij,ij->j", t, t)
            np.matmul(B[rows], C, out=t)
            t -= block
            resid_sq += np.vdot(t, t)
    if not np.max(np.abs(np.sqrt(unit_sq) - 1.0)) <= 1e-12:
        raise AssertionError("ground-truth columns are not unit norm")
    if not np.sqrt(np.max(noise_sq)) <= inst.epsilon + 1e-12:
        raise AssertionError("noise column exceeds the epsilon bound")
    resid = np.sqrt(resid_sq)
    if not resid <= 1e-9:
        raise AssertionError("generated matrix has rank above r or the "
                             "true basis does not span it")
    gram_dev = np.linalg.norm(B.T @ B - np.eye(r))
    sigma_r_C = np.linalg.svd(C, compute_uv=False)[r - 1]
    if not np.sqrt(max(0.0, 1.0 - gram_dev)) * sigma_r_C - resid >= 1e-6:
        raise AssertionError("generated matrix does not expose rank r")


def make_instance(m, n, r, epsilon, seed, coherence_mode="incoherent",
                  noise_mode="sphere", spike_index=0, spike_weight=0.99):
    """Generate a full ProblemInstance from a single seed.

    Generation and noise use independent substreams of the seed (an
    RngState, or an integer seed that ``RngState`` takes), so the same
    seed always reproduces the same instance.  ``epsilon`` and
    ``noise_mode`` are checked before ``L`` is built, the other
    parameters by ``generate_low_rank`` before its first draw.
    """
    _check_epsilon(epsilon)
    _check_mode("noise_mode", noise_mode, _NOISE_MODES)
    root = seed if isinstance(seed, RngState) else RngState(seed)
    L, basis = generate_low_rank(
        m, n, r, root.substream(_STREAM_BASIS),
        coherence_mode=coherence_mode,
        spike_index=spike_index, spike_weight=spike_weight,
    )
    return add_bounded_noise(L, epsilon, root.substream(_STREAM_NOISE), basis,
                             mode=noise_mode)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

# write_matrix formats this many values at a time: whole rows when n is
# at most this, otherwise pieces of one row.  A block's temporaries come
# to about 200 bytes a value, so a block stays near 0.4 MB.
_TEXT_BLOCK = 2048

# Values with _FAST_MIN <= |x| < _FAST_MAX are formatted with exact
# integer arithmetic; every other value (zero, subnormal, non-finite,
# |x| outside the window) by Python's own ``%.17e``.  In the window the
# decimal exponent E = floor(log10|x|) lies in [-9, 9], and the log10
# estimate of E, off by at most one, in [-10, 10]; so k = 17 - E lies in
# [7, 27] on both passes of ``_decimal``, and 5**k <= 5**27 < 2**63 fits
# a uint64.  With |x| = f * 2**e, 2**52 <= f < 2**53, the shift
# s = -(e + k) = 35 + E - floor(log2|x|) lies in [11, 56] for the true E
# and in [10, 57] for an estimate off by one, inside [1, 63]; and the
# truncated quotient stays below 10**19 < 2**64.
_FAST_MIN = 1e-9
_FAST_MAX = 1e10
_EXP_MIN, _EXP_MAX = -9, 9
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)

# Each value is laid out as seven little-endian uint32 words, 28 bytes:
# "-d.d" "dddd" "dddd" "dddd" "dddd" "e+XX" and three NULs plus the
# separator.  A positive value has a NUL for its sign; the NULs are
# dropped when the block is written.
_LEAD = np.frombuffer(b"".join(b"\0%d.%d" % divmod(t, 10) for t in range(100)),
                      "<u4")
_QUAD = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), "<u4")
_EXPONENT = np.frombuffer(
    b"".join(b"e%+03d" % E for E in range(_EXP_MIN, _EXP_MAX + 1)), "<u4")
_MINUS, _SPACE, _NEWLINE = np.frombuffer(b"-\0\0\0\0\0\0 \0\0\0\n", "<u4")


def _scaled(f, e, E):
    """Integer part of ``f * 2**e * 10**(17 - E)``, with the low limb and
    the shift that hold its fraction.

    With k = 17 - E the product is exactly ``N * 2**-s`` for
    ``N = f * 5**k`` and ``s = -(e + k)``.  N has up to 116 bits: it is
    built as two uint64 limbs ``hi``, ``lo`` from 32-bit partial products,
    each of which fits in 64 bits.  The fraction is the low s bits of lo.
    """
    k = 17 - E
    p = _POW5[k]
    f0, f1 = f & 0xFFFFFFFF, f >> 32
    p0, p1 = p & 0xFFFFFFFF, p >> 32
    low = f0 * p0
    mid = f0 * p1 + f1 * p0               # below 2**63 + 2**53
    lo = low + (mid << 32)                # modulo 2**64
    hi = f1 * p1 + (mid >> 32) + (lo < low)
    s = (-(e + k)).astype(np.uint64)
    return (hi << (64 - s)) | (lo >> s), lo, s


def _decimal(ax):
    """``(D, E)`` with ``10**17 <= D < 10**18`` the 18 significant digits
    of each positive ``ax`` in the fast window, rounded half to even as
    ``%.17e`` rounds them, and E its decimal exponent."""
    mant, ex = np.frexp(ax)
    f = (mant * 2.0 ** 53).astype(np.uint64)
    e = ex.astype(np.int64) - 53
    E = np.floor(np.log10(ax)).astype(np.int64)
    q, lo, s = _scaled(f, e, E)
    # log10 can round across a power of ten; the truncated quotient then
    # has 17 or 19 digits, and E moves by one.
    off = (q >= 10 ** 18).astype(np.int64) - (q < 10 ** 17)
    if off.any():
        E += off
        q, lo, s = _scaled(f, e, E)
    half = 1 << (s - 1)
    rem = lo & ((half << 1) - 1)
    # Rounding never carries to 10**18: that needs |x| within half a unit
    # of the 18th digit below a power of ten, and no double in the window
    # is that close to one.
    q += (rem > half) | ((rem == half) & ((q & 1) == 1))
    return q, E


def _format_block(v, seps, words):
    """The ``%.17e`` text of the 1-D values ``v``, each followed by its
    separator word in ``seps``; ``words`` is scratch of at least
    ``len(v)`` rows."""
    words = words[:v.size]
    ax = np.abs(v)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    D, E = _decimal(np.where(fast, ax, 1.0))
    top = D // 10 ** 16
    D -= top * 10 ** 16
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    words[:, 0] = _LEAD[top] | np.signbit(v) * _MINUS
    for col, part in ((1, hi), (3, lo)):
        quad = part // 10 ** 4
        words[:, col] = _QUAD[quad]
        words[:, col + 1] = _QUAD[part - quad * 10 ** 4]
    words[:, 5] = _EXPONENT[E - _EXP_MIN]
    words[:, 6] = seps
    text = words.view(np.uint8)
    for i in np.flatnonzero(~fast):
        text[i, :27] = np.frombuffer(
            (b"%.17e" % float(v[i])).ljust(27, b"\0"), np.uint8)
    return words.tobytes().translate(None, b"\0")


def write_matrix(path, a):
    """Write a non-empty matrix as plain text: a header line ``m n``
    followed by m rows of n space-separated values.

    Each value is written exactly as ``"%.17e" % v`` writes it: 18
    significant digits, correctly rounded with ties to even, an exponent
    of at least two digits, and ``-0.0``, ``inf`` and ``nan`` as Python
    prints them.  Values are formatted in numpy, a block of a few thousand
    at a time: those with ``1e-9 <= |v| < 1e10`` by exact integer
    arithmetic, any other value (zero, subnormal, non-finite or outside
    that window) by Python's ``%``, one value at a time, in its place.
    An empty matrix raises ``ValueError``: it could not be read back.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    m, n = a.shape
    if not m or not n:
        raise ValueError(f"cannot write an empty {m}x{n} matrix: it could "
                         f"not be read back")
    rows = max(1, _TEXT_BLOCK // n)
    seps = np.where(np.arange(rows * n) % n == n - 1, _NEWLINE, _SPACE)
    words = np.empty((_TEXT_BLOCK, 7), "<u4")
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (m, n))
        for i0 in range(0, m, rows):
            block = a[i0:i0 + rows]
            for j0 in range(0, n, _TEXT_BLOCK):
                v = block[:, j0:j0 + _TEXT_BLOCK].reshape(-1)
                fh.write(_format_block(v, seps[j0:j0 + v.size], words))


# read_matrix parses the writer's own text this many bytes at a time,
# cut back to the last whole row.  A chunk's temporaries come to about
# 14 bytes per byte of text, so a chunk costs under 2 MB; larger chunks
# gain little speed.
_READ_CHUNK = 1 << 17

# A value in the writer's fast window is "d.ddddddddddddddddde+0d" after
# an optional "-": 23 bytes, read as four unaligned little-endian uint64
# words starting at bytes 0 ("d.dddddd"), 3 (digits 2-9), 11 (digits
# 10-17) and 16 (digits 15-17, "e", sign, exponent and separator).
_TOKEN = 23
# 10**k correctly rounded, for the k = 17 - E in [8, 26] of that form.
_POW10 = np.array([float(10 ** k) for k in range(27)])
# Bounds the walk from the estimate to the exact double: the estimate is
# off by three roundings of half an ulp each.
_MAX_STEPS = 8


def _eight_digits(w):
    """The value of the eight ASCII digits in each little-endian uint64
    ``w``, the first digit in the lowest byte; ``ok`` is False where a byte
    is not a digit."""
    ok = (((w & 0xF0F0F0F0F0F0F0F0) == 0x3030303030303030)
          & (((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0)
             == 0x3030303030303030))
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32, ok


def _fast_tokens(text, ends):
    """``(D, E, ok)`` for the 23-byte tokens ending at the separators
    ``ends`` of ``text``: the 18 digits as an integer, the exponent, and
    whether the token has the fast form with a nonzero leading digit and
    a one-digit exponent."""
    words = np.ndarray((len(text) - 7,), "<u8", text, strides=(1,))
    p = ends - _TOKEN
    head, tail = words[p], words[p + 16]
    hi, ok_hi = _eight_digits(words[p + 3])
    lo, ok_lo = _eight_digits(words[p + 11])
    lead = (head & 0xFF) - 48
    second = (head >> 16 & 0xFF) - 48
    sign = tail >> 32 & 0xFF
    digit = (tail >> 48 & 0xFF) - 48
    ok = (ok_hi & ok_lo & (lead - 1 < 9) & (second < 10) & (digit < 10)
          & (head >> 8 & 0xFF == 46) & (tail >> 24 & 0xFF == 101)
          & ((sign == 43) | (sign == 45)) & (tail >> 40 & 0xFF == 48))
    D = lead * 10 ** 17 + second * 10 ** 16 + hi * 10 ** 8 + lo
    E = digit.astype(np.int64)
    return D, np.where(sign == 45, -E, E), ok


def _from_decimal(D, E):
    """The positive double whose ``%.17e`` text has the 18 digits ``D``
    and exponent ``E``, for each pair; NaN where no double in the fast
    window has that text.

    ``D / 10**(17 - E)`` is within a few ulp of the answer.  Each estimate
    is checked with the writer's own ``_decimal``: 18 digits tell every
    double apart, so a match is the one double with that text.  A miss is
    stepped one ulp toward the token and checked again.  A step that
    overshoots (the comparison changes sign) means no double has the
    text; an estimate outside the window is not checked.
    """
    y = D / _POW10[17 - E]
    todo = np.arange(y.size)
    side = np.zeros(y.size, np.int64)
    for _ in range(_MAX_STEPS):
        ay = y[todo]
        inside = (ay >= _FAST_MIN) & (ay < _FAST_MAX)
        q, e = _decimal(np.where(inside, ay, 1.0))
        want_q, want_e = D[todo], E[todo]
        cmp = np.where(e != want_e, np.sign(e - want_e),
                       (q > want_q).astype(np.int64) - (q < want_q))
        miss = ~inside | (cmp * side < 0)
        y[todo[miss]] = np.nan
        left = (cmp != 0) & ~miss
        todo, side = todo[left], cmp[left]
        if not todo.size:
            return y
        y[todo] = np.nextafter(y[todo], np.where(side > 0, 0.0, np.inf))
    raise RuntimeError(f"{todo.size} decimal values did not converge in "
                       f"{_MAX_STEPS} steps")


def _parse_rows(text, n, out):
    """Parse ``text``, whole rows of the writer's own output, into the
    flat ``out``; returns the number of values written, or None if the
    text is not in the writer's exact layout.

    Every row must hold ``n`` tokens, each followed by one space, the
    last by ``\\n``.  A token in the fast form is parsed in numpy; any
    other is read by ``float`` and kept only if ``%.17e`` writes it back
    byte for byte.
    """
    buf = np.frombuffer(text, np.uint8)
    # Every byte of a number lies above the space.
    ends = np.flatnonzero(buf <= 32)
    seps = buf[ends]
    lines = seps == 10
    count = ends.size
    if (count % n or count > out.size or not lines[n - 1::n].all()
            or np.count_nonzero(lines) != count // n
            or not (lines | (seps == 32)).all()):
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    neg = buf[starts] == 45
    fast = np.flatnonzero(ends - starts - neg == _TOKEN)
    slow = np.ones(count, bool)
    values = out[:count]
    if fast.size:
        D, E, ok = _fast_tokens(text, ends[fast])
        fast = fast[ok]
        y = _from_decimal(D[ok], E[ok])
        values[fast] = np.where(neg[fast], -y, y)
        slow[fast] = np.isnan(y)
    for i in np.flatnonzero(slow):
        token = text[starts[i]:ends[i]]
        try:
            v = float(token)
        except ValueError:
            return None
        if b"%.17e" % v != token:
            return None
        values[i] = v
    return count


def _read_own_text(path, m, n):
    """The m x n matrix in ``path`` if its bytes are exactly the writer's
    own text, else None.

    The file is streamed in chunks of whole rows of about
    ``_READ_CHUNK`` bytes into one m x n array held in a private anonymous
    mapping of its own, so its memory goes back to the system as soon as
    the array is dropped, as ``np.loadtxt``'s result does.  From malloc's
    heap, where numpy puts a block of this size once the process has
    freed a larger one, it can stay resident after release: a CLI process
    repeating ``run`` on a 500 x 1000 bundle then peaked up to 3 MB
    higher.
    """
    with open(path, "rb") as fh:
        if fh.readline() != b"%d %d\n" % (m, n):
            return None
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        # Each value takes at least two bytes; a header promising more
        # than the body holds must not size the output.
        if 2 * m * n > body:
            return None
        out = np.frombuffer(
            mmap.mmap(-1, 8 * m * n, flags=mmap.MAP_PRIVATE), np.float64)
        filled, carry = 0, b""
        while block := fh.read(_READ_CHUNK):
            text = carry + block
            cut = text.rfind(b"\n") + 1
            carry = text[cut:]
            if cut:
                count = _parse_rows(text[:cut], n, out[filled:])
                if count is None:
                    return None
                filled += count
    if carry or filled != out.size:
        return None
    return out.reshape(m, n)


def _bad_line(path, n):
    """The first line of a matrix file (the header is line 1) holding a
    byte that is not ASCII or, below the header and with ``n`` known, a
    token that is not a number or a count of values other than ``n``, as
    an error message; None if there is none."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                tokens = raw.decode("ascii").partition("#")[0].split()
            except UnicodeDecodeError:
                return f"line {lineno}: bytes that are not ASCII"
            if lineno == 1 or n is None:
                continue
            for token in tokens:
                try:
                    if "_" in token:  # float() takes "1_0", loadtxt does not
                        raise ValueError
                    float(token)
                except ValueError:
                    return f"line {lineno}: {token!r} is not a number"
            if tokens and len(tokens) != n:
                return f"line {lineno}: expected {n} values, found {len(tokens)}"
    return None


def read_matrix(path):
    """Read a matrix written by ``write_matrix``, or any text matrix that
    ``np.loadtxt`` reads under an ``m n`` header.

    The header is checked first.  A body in the writer's exact layout
    (``n`` values per line, single spaces, ``\\n`` line ends, every value
    as ``%.17e`` writes it) is then parsed in numpy, a chunk of whole rows
    at a time: a value ``[-]d.ddddddddddddddddde±0d`` is estimated from
    its digits and confirmed, or stepped by an ulp until confirmed, by the
    writer's own exact digit generation; any other value (zero, subnormal,
    non-finite, outside the writer's window) by ``float``, and kept only
    if ``%.17e`` writes it back unchanged.  Either way the result is
    bit-identical to ``np.loadtxt``'s.  Any other text (comments, tabs,
    CRLF line ends, other number forms, ragged or missing rows) is read by
    one ``np.loadtxt`` call, which is also the only source of errors.

    Every error is a ``ValueError`` that names ``path``: a header line
    that is not two positive integers (rejected before any row is
    parsed), a header with no data rows after it, a row count other than
    the header's, or a line holding bytes that are not ASCII, a token
    that is not a number or a ragged row.  A bad line is named by its
    line number in the file, the header being line 1.
    """
    n = None
    try:
        with open(path, "r", encoding="ascii") as fh:
            line = fh.readline()
            header = line.split()
            if not (len(header) == 2
                    and all(t.isdigit() and int(t) > 0 for t in header)):
                raise ValueError(f"header must be two positive integers "
                                 f"'m n'; got {line.rstrip()!r}")
            m, n = int(header[0]), int(header[1])
            data = _read_own_text(path, m, n)
            if data is not None:
                return data
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "error", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(fh, ndmin=2)
    except UserWarning:
        raise ValueError(f"{path}: no data rows after the header") from None
    except ValueError as exc:
        # loadtxt numbers data rows, not file lines, and not alike in all
        # of its messages; text decoding fails a whole block at a time.
        # Rescan the file for the line at fault.
        raise ValueError(f"{path}: {_bad_line(path, n) or exc}") from None
    if data.shape != (m, n):
        raise ValueError(
            f"{path}: header promises {m}x{n}, found {data.shape}"
        )
    return data


def save_instance(dirpath, inst, seed, noise_mode, coherence_mode="incoherent"):
    """Write an instance bundle: ``L.mat``, ``M.mat`` and a ``meta`` file
    of key=value lines.  ``seed`` is an integer seed that ``RngState``
    takes, and ``noise_mode`` and ``coherence_mode`` are modes of
    ``add_bounded_noise`` and ``generate_low_rank`` by
    ``sampling._check_mode``; any other value raises ``ValueError``
    before anything is written."""
    seed = RngState(seed).seed
    _check_mode("noise_mode", noise_mode, _NOISE_MODES)
    _check_mode("coherence_mode", coherence_mode, _COHERENCE_MODES)
    os.makedirs(dirpath, exist_ok=True)
    write_matrix(os.path.join(dirpath, "L.mat"), inst.L)
    write_matrix(os.path.join(dirpath, "M.mat"), inst.M)
    m, n = inst.shape
    meta_lines = [
        f"m={m}",
        f"n={n}",
        f"r={inst.r}",
        f"epsilon={inst.epsilon:.17g}",
        f"seed={seed}",
        f"mode={noise_mode}",
        f"coherence_mode={coherence_mode}",
        f"mu={coherence(inst.true_basis):.17g}",
    ]
    with open(os.path.join(dirpath, "meta"), "w", encoding="ascii") as fh:
        fh.write("\n".join(meta_lines) + "\n")


def load_instance(dirpath):
    """Load an instance bundle; returns (L, M, meta_dict), the meta values
    as strings.

    Raises ``ValueError`` when ``L.mat`` and ``M.mat`` differ in shape or
    when ``meta`` breaks a rule: every non-blank line is ``key=value``
    with a key not seen before; ``r`` and ``epsilon`` are present; ``r``,
    ``m`` and ``n`` parse as integers, ``epsilon`` and ``mu`` as numbers;
    ``m`` and ``n`` equal the matrices' shape; ``r`` lies in
    [1, min(m, n)].  Each meta error names the meta file.  The rules
    that need only ``meta`` are checked before either matrix is parsed
    (``_load_meta``), the rank against ``m`` and ``n`` too where ``meta``
    states both.
    """
    meta = _load_meta(dirpath)
    return (*_load_matrices(dirpath, meta), meta)


def _load_meta(dirpath):
    """The bundle's meta dict, held to every rule of ``load_instance``
    that needs no matrix."""
    meta_path = os.path.join(dirpath, "meta")
    meta = {}
    with open(meta_path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{meta_path}: line {line!r} is not "
                                 f"key=value")
            if key in meta:
                raise ValueError(f"{meta_path}: key '{key}' appears twice")
            meta[key] = value
    for key in ("r", "epsilon"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing key '{key}'")
    for key, kind in (("m", int), ("n", int), ("r", int),
                      ("epsilon", float), ("mu", float)):
        if key in meta:
            try:
                kind(meta[key])
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"{meta_path}: {key} must be {noun}; "
                                 f"got {meta[key]!r}") from None
    if "m" in meta and "n" in meta:
        _check_meta_rank(meta_path, meta, int(meta["m"]), int(meta["n"]))
    return meta


def _load_matrices(dirpath, meta):
    """``(L, M)`` of the bundle whose ``_load_meta`` dict is ``meta``,
    held to the rules of ``load_instance`` that need the matrices."""
    meta_path = os.path.join(dirpath, "meta")
    L = read_matrix(os.path.join(dirpath, "L.mat"))
    M = read_matrix(os.path.join(dirpath, "M.mat"))
    if M.shape != L.shape:
        raise ValueError(f"{dirpath}: L.mat is {L.shape[0]}x{L.shape[1]} "
                         f"but M.mat is {M.shape[0]}x{M.shape[1]}")
    for key, size in zip(("m", "n"), L.shape):
        if key in meta and int(meta[key]) != size:
            raise ValueError(f"{meta_path}: {key}={meta[key]} but the "
                             f"matrices are {L.shape[0]}x{L.shape[1]}")
    _check_meta_rank(meta_path, meta, *L.shape)
    return L, M


def _check_meta_rank(meta_path, meta, m, n):
    """``_check_rank`` on the meta rank, its error naming the meta file."""
    try:
        _check_rank(int(meta["r"]), m, n)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None

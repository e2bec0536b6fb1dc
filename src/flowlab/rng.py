"""Deterministic counter-based random streams.

Every random quantity of the flow code is drawn from a Philox-4x64
(counter-based) bit generator keyed by ``[seed, stream]``.  A Philox word
depends only on its key and its 256-bit counter, so streams are independent
of evaluation order and of the number of worker processes, and a fixed
``(seed, stream, counter)`` always yields the same variate on every
platform.  Normal variates are the inverse CDF of uniforms on the open unit
interval, so they inherit the same guarantee.  The oracle Monte-Carlo in
:mod:`flowlab.oracles` does not draw through this module: it takes numpy's
ziggurat normals from a Philox of its own, at seeds of its own.

Key and counter layout:

* key ``[seed, 0]``: all trajectory noise.  Row j of an ensemble with n_steps
  steps of m-dimensional noise reads the B = ⌈n_steps m / 4⌉ counter blocks
  after counter j B (four words a block, the last block's spare words
  unused), so a row drawn alone equals that row of any block of rows.
  Ensembles at one seed with different n_steps m read overlapping counters:
  row j of one may share words with a different row of the other.
* key ``[seed, 2**62]``: initial points drawn from the standard Gaussian.
* key ``[seed, 2**62 + 1]``: inverse-CDF sampling of grid densities.
* key ``[seed, 2**62 + 2]``: Monte-Carlo quadrature fallback nodes.

A word w becomes the uniform ((w >> 12) + 1/2) 2**-52, which lies in
[2**-53, 1 - 2**-53].  Every such value is exact, so no word is rejected and
``ndtri`` stays finite.  With 53 bits the top word would give
(2**53 - 1/2) 2**-53, which rounds to exactly 1.0, and ``ndtri(1.0)`` is inf.
"""

import numpy as np
from scipy.special import ndtri

INITIALS_STREAM = 1 << 62
GRID_SAMPLER_STREAM = (1 << 62) + 1
MC_QUAD_STREAM = (1 << 62) + 2

_BLOCK_WORDS = 1 << 14  # raw words converted per pass; keeps scratch buffers small


def substream(seed, index):
    """Generator for stream ``index`` under ``seed`` (Philox, key = [seed, index])."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _to_uniforms(words, out):
    """``out`` = ((words >> 12) + 1/2) 2**-52; ``words`` is overwritten."""
    np.right_shift(words, 12, out=words)
    np.add(words, 0.5, out=out)
    out *= 2.0**-52
    return out


def uniform_open(gen, size):
    """Uniforms in the open interval (0, 1) from ``gen``'s raw words; safe as ndtri arguments."""
    words = gen.bit_generator.random_raw(size)
    return _to_uniforms(words, np.empty(np.shape(words)))


def standard_normals(seed, index, shape):
    """Standard normal variates for stream ``index`` via inverse CDF."""
    return ndtri(uniform_open(substream(seed, index), shape))


def brownian_increments(seed, index, n_steps, m, dt):
    """Increments of m-dimensional Brownian paths on a uniform grid.

    ``index`` is one trajectory index, giving an (n_steps, m) array, or a
    ``range`` of consecutive ones, giving (len(index), n_steps, m) whose
    row j is bitwise the increments of trajectory ``index[j]`` drawn on its
    own.  One Philox keyed [seed, 0] is set to the first row's counter; its
    words are read and converted in row blocks of about ``_BLOCK_WORDS``.
    """
    single = not isinstance(index, range)
    rows = range(index, index + 1) if single else index
    if rows.step != 1:
        raise ValueError("brownian_increments reads a range of consecutive trajectories")
    n_words = n_steps * m
    out = np.empty((len(rows), n_steps, m))
    if out.size:
        flat = out.reshape(len(rows), n_words)
        row_words = 4 * -(-n_words // 4)
        bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                                  counter=rows[0] * (row_words // 4))
        per_block = max(1, _BLOCK_WORDS // row_words)
        scale = np.sqrt(dt)
        for lo in range(0, len(rows), per_block):
            z = flat[lo:lo + per_block]
            words = bitgen.random_raw(len(z) * row_words).reshape(len(z), row_words)
            ndtri(_to_uniforms(words[:, :n_words], z), out=z)
            z *= scale
    return out[0] if single else out


def gaussian_points(seed, n, d):
    """n γ_d-distributed points from the dedicated ``INITIALS_STREAM``."""
    return standard_normals(seed, INITIALS_STREAM, (n, d))

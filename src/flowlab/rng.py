"""Deterministic counter-based random streams.

Every random quantity in the package is drawn from a Philox (counter-based)
bit generator keyed by ``(seed, stream index)``.  Streams are therefore
independent of evaluation order and of the number of worker threads, and a
fixed ``(seed, index, step)`` triple always yields the same variate on every
platform.  Normal variates are produced by the inverse CDF applied to
uniforms on the open unit interval, so they inherit the same guarantee.

Trajectory noise is drawn a block of streams at a time:
``brownian_increments`` over a ``range`` of indices resets one Philox to each
key in turn, reads its raw words and replays numpy's bounded-integer draw on
them in vectorized arithmetic, so every row is bit for bit the variates a
``substream`` generator for that index would give.

Stream index layout:

* ``0 .. 2**62 - 1``      trajectory substreams (one per trajectory)
* ``2**62``               initial points drawn from the standard Gaussian
* ``2**62 + 1``           inverse-CDF sampling of grid densities
* ``2**62 + 2``           Monte-Carlo quadrature fallback nodes
"""

import numpy as np
from scipy.special import ndtri

INITIALS_STREAM = 1 << 62
GRID_SAMPLER_STREAM = (1 << 62) + 1
MC_QUAD_STREAM = (1 << 62) + 2

_DENOM = float(1 << 53)
_BLOCK_WORDS = 1 << 14  # raw words converted per pass; keeps scratch buffers small
# numpy's integers(1, 2**53) draws from 2**53 - 1 values and rejects a word
# whose low product half is below 2**64 mod (2**53 - 1) = 2**11
_REJECT_BELOW = 1 << 11


def substream(seed, index):
    """Generator for stream ``index`` under ``seed`` (Philox, key = [seed, index])."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_open(gen, size):
    """Uniforms in the open interval (0, 1); safe as ndtri arguments."""
    return gen.integers(1, 1 << 53, size=size).astype(np.float64) / _DENOM


def standard_normals(seed, index, shape):
    """Standard normal variates for stream ``index`` via inverse CDF."""
    return ndtri(uniform_open(substream(seed, index), shape))


def _lemire_uniforms(words):
    """``uniform_open`` replayed on raw Philox words: ``(uniforms, rejected)``.

    numpy's ``integers(1, 2**53)`` maps a word x to 1 + high64(x (2**53 - 1))
    (Lemire's bounded draw) unless low64(x (2**53 - 1)) < 2**11, when it
    discards x and draws again.  ``rejected`` flags those words; every other
    uniform equals the generator's bit for bit.
    """
    # x (2**53 - 1) = (x >> 11) 2**64 + ((x & 2047) << 53) - x
    low = (words & 2047) << 53
    borrow = low < words
    low -= words
    high = (words >> 11) - borrow
    high += 1
    return high.astype(np.float64) / _DENOM, low < _REJECT_BELOW


def brownian_increments(seed, index, n_steps, m, dt):
    """Increments of m-dimensional Brownian paths on a uniform grid.

    ``index`` is one stream index, giving an (n_steps, m) array, or a
    ``range`` of them, giving (len(index), n_steps, m) whose row j is bitwise
    the increments of stream ``index[j]`` drawn on its own.  The range form
    uses one Philox for the whole call and converts its words in row blocks
    of about ``_BLOCK_WORDS``; a row holding a word the bounded draw would
    reject (chance about 1e-16 per word) is redrawn through the generator.
    """
    single = not isinstance(index, range)
    streams = range(index, index + 1) if single else index
    n_words = n_steps * m
    out = np.empty((len(streams), n_steps, m))
    if out.size:
        flat = out.reshape(len(streams), n_words)
        scale = np.sqrt(dt)
        bitgen = np.random.Philox(key=np.array([seed, streams[0]], dtype=np.uint64))
        # a fresh generator's state (counter 0, empty buffer) held as plain
        # ints, which the state setter reads in under half the time of numpy arrays
        state = bitgen.state
        state["state"] = {name: words.tolist() for name, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        key = state["state"]["key"]
        per_block = max(1, _BLOCK_WORDS // n_words)
        raw = np.empty((min(per_block, len(streams)), n_words), dtype=np.uint64)
        for lo in range(0, len(streams), per_block):
            block = streams[lo:lo + per_block]
            words = raw[:len(block)]
            for r, j in enumerate(block):
                key[1] = j
                bitgen.state = state
                words[r] = bitgen.random_raw(n_words)
            uniforms, rejected = _lemire_uniforms(words)
            z = flat[lo:lo + len(block)]
            ndtri(uniforms, out=z)
            for r in np.flatnonzero(rejected.any(axis=1)):
                z[r] = standard_normals(seed, block[r], n_words)
            z *= scale
    return out[0] if single else out


def gaussian_points(seed, n, d, stream=INITIALS_STREAM):
    """n γ_d-distributed points from a dedicated stream."""
    return standard_normals(seed, stream, (n, d))

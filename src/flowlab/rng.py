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

* key ``[seed, 0]``: all trajectory noise, drawn four steps at a time.  In
  an ensemble of n_steps steps of m-dimensional noise, the increments of
  trajectory j, noise component a, at steps 4g .. 4g+3 are the four words
  of the (j m + a + 1)-th counter block after counter (0, g, n_steps, m)
  (the four 64-bit counter words, lowest first).  So a Philox set once to
  (lo m, g, n_steps, m) gives rows lo .. hi-1 their next four steps in one
  read, and a row drawn alone equals that row of any block of rows.  A row
  reads 4⌈n_steps/4⌉ m words; the spare words of a last partial group go
  unused.  Two ensembles at one seed share row j's increments exactly when
  they share n_steps and m, and otherwise read disjoint counters.  A
  Fokker-Planck section's two flows (the weak-error and the factorization
  ensembles) share them by design, and draw each row once
  (:class:`flowlab.sde.CompanionFlow`).
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


def _set_counter(bitgen, seed, counter):
    """Put ``bitgen``, a Philox keyed [seed, 0], at ``counter``: its next word opens the block after it."""
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array(counter, dtype=np.uint64),
                  "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,  # buffer spent: the next read computes a fresh block
        "has_uint32": 0,
        "uinteger": 0,
    }


# the one Philox trajectory noise is read from; each read sets its key and
# counter first (``_set_counter``), which costs a fraction of building one
_TRAJECTORY_PHILOX = np.random.Philox(key=np.zeros(2, dtype=np.uint64))


def brownian_increments(seed, index, n_steps, m, dt, steps=None):
    """Increments of m-dimensional Brownian paths on a uniform grid of n_steps steps.

    ``index`` is one trajectory index, giving an (len(steps), m) array, or a
    ``range`` of consecutive ones, giving (len(index), len(steps), m) whose
    row j is bitwise the increments of trajectory ``index[j]`` drawn on its
    own.  ``steps`` is a ``range`` of consecutive step indices within
    n_steps, by default every step; the increments of a step do not depend
    on which other steps or rows are drawn with it.  Each group of four
    steps is one Philox read at the counter of the module docstring, and
    words are converted about ``_BLOCK_WORDS`` at a time.  The array
    returned is a view of a step-major block: ``np.moveaxis(inc, 1, 0)`` is
    C-contiguous, so each step's (rows, m) slab of it is too.  Every call
    reads through one module-level Philox, so it is not thread-safe; worker
    processes each have their own copy.
    """
    single = not isinstance(index, range)
    rows = range(index, index + 1) if single else index
    steps = range(n_steps) if steps is None else steps
    if rows.step != 1 or steps.step != 1:
        raise ValueError("brownian_increments reads ranges of consecutive trajectories and steps")
    if steps and not 0 <= steps.start < steps.stop <= n_steps:
        raise ValueError(f"{steps} is not a range of the {n_steps} steps")
    if rows and not (0 <= rows.start and rows.stop * m < 1 << 64):
        raise ValueError(f"trajectories {rows} at m = {m} need counter blocks past 2**64 - 1")
    out = np.empty((len(steps), len(rows), m))
    if out.size:
        bitgen = _TRAJECTORY_PHILOX
        width = 4 * len(rows) * m  # words of one step group
        per_pass = max(1, _BLOCK_WORDS // width)
        groups = range(steps.start // 4, (steps.stop - 1) // 4 + 1)
        scale = np.sqrt(dt)
        for first in range(groups.start, groups.stop, per_pass):
            part = range(first, min(first + per_pass, groups.stop))
            words = np.empty((len(part), width), dtype=np.uint64)
            for i, g in enumerate(part):
                _set_counter(bitgen, seed, (rows.start * m, g, n_steps, m))
                words[i] = bitgen.random_raw(width)
            # each group's words are (row, component, step); make them step-major
            words = words.reshape(len(part), len(rows), m, 4).transpose(0, 3, 1, 2).reshape(-1, len(rows), m)
            lo, hi = max(steps.start, 4 * first), min(steps.stop, 4 * part.stop)
            z = out[lo - steps.start:hi - steps.start]
            ndtri(_to_uniforms(words[lo - 4 * first:hi - 4 * first], z), out=z)
            z *= scale
    inc = out.transpose(1, 0, 2)
    return inc[0] if single else inc


def gaussian_points(seed, n, d):
    """n γ_d-distributed points from the dedicated ``INITIALS_STREAM``."""
    return standard_normals(seed, INITIALS_STREAM, (n, d))

import math
import tracemalloc

import numpy as np
import pytest

from flowlab import oracles


def _one_shot(seed, stream, tau, n, summand):
    """Mean and standard error of summand(log K) over all n pairs drawn at once."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    z = gen.standard_normal((n, 2))
    dw = z[:, 1] * math.sqrt(tau)
    vals = summand(z[:, 0] * dw + dw * dw / 2.0)
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n)


class TestStreamedMonteCarlo:
    def test_lp_peak_memory_is_one_block(self):
        tracemalloc.start()
        try:
            oracles.translate_lp_mc(2.0, 0.04, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("block", [4096, 65536])
    def test_lp_equals_one_shot_at_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(oracles, "_MC_BLOCK", block)
        p, tau, n = 2.0, 0.04, 200_003
        value, stderr = oracles.translate_lp_mc(p, tau, n)
        mean, se = _one_shot(123, 0, tau, n, lambda v: np.exp((p - 1.0) * v))
        assert value == pytest.approx(mean ** (1.0 / p), rel=1e-12, abs=0)
        assert stderr == pytest.approx(se * mean ** (1.0 / p - 1.0) / p, rel=1e-12, abs=0)

    @pytest.mark.parametrize("block", [4096, 65536])
    def test_entropy_equals_one_shot_at_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(oracles, "_MC_BLOCK", block)
        tau, n = 0.25, 200_003
        value, stderr = oracles.translate_entropy_mc(tau, n)
        mean, se = _one_shot(321, 1, tau, n, np.abs)
        assert value == pytest.approx(mean, rel=1e-12, abs=0)
        assert stderr == pytest.approx(se, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p, tau", [(2.0, 0.25), (3.0, 0.1), (2.0, 1.0 / 6.0)])
    def test_lp_refuses_an_infinite_variance_summand(self, p, tau):
        # 2(p-1)(2p-1)τ = 1.5, 2 and exactly 1: K^(p-1) has no finite variance
        with pytest.raises(ValueError, match="infinite variance"):
            oracles.translate_lp_mc(p, tau, 1000)

    def test_lp_matches_closed_form_where_the_error_bar_holds(self):
        value, stderr = oracles.translate_lp_mc(2.0, 0.04, 10**6)
        assert abs(value - oracles.translate_lp_norm(2.0, 0.04)) <= 4.0 * stderr

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from flowlab import oracles
from flowlab.errors import OracleMismatchError


def _draws(seed, stream, tau, n):
    """x and Δw of n draws at once: normals 2i and 2i+1 of the Philox stream keyed [seed, stream]."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    z = gen.standard_normal((n, 2))
    return z[:, 0], z[:, 1] * math.sqrt(tau)


def _mean_and_stderr(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


def _one_shot(seed, stream, tau, n, summand):
    """Mean and standard error of the antithetic units over all n draws at once."""
    x, dw = _draws(seed, stream, tau, n)
    return _mean_and_stderr((summand(x * dw + dw * dw / 2.0) + summand(-x * dw + dw * dw / 2.0)) / 2.0)


def _plain_one_shot(seed, stream, tau, n, summand):
    """Mean and standard error of summand(log K) over n plain pairs, without the flip."""
    x, dw = _draws(seed, stream, tau, n)
    return _mean_and_stderr(summand(x * dw + dw * dw / 2.0))


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

    def test_lp_error_bar_is_narrower_than_plain_pairs_at_equal_evaluations(self):
        # n draws evaluate K 2n times, as 2n plain pairs do, from half the normals
        p, tau, n = 2.0, 0.04, 200_003
        _, stderr = oracles.translate_lp_mc(p, tau, n)
        mean, se = _plain_one_shot(123, 0, tau, 2 * n, lambda v: np.exp((p - 1.0) * v))
        assert stderr <= 0.6 * se * mean ** (1.0 / p - 1.0) / p

    @pytest.mark.parametrize("p, tau", [(2.0, 0.25), (3.0, 0.1), (2.0, 1.0 / 6.0)])
    def test_lp_refuses_an_infinite_variance_summand(self, p, tau):
        # 2(p-1)(2p-1)τ = 1.5, 2 and exactly 1: K^(p-1) has no finite variance
        with pytest.raises(ValueError, match="infinite variance"):
            oracles.translate_lp_mc(p, tau, 1000)

    def test_lp_matches_closed_form_where_the_error_bar_holds(self):
        value, stderr = oracles.translate_lp_mc(2.0, 0.04, 10**6)
        assert abs(value - oracles.translate_lp_norm(2.0, 0.04)) <= 4.0 * stderr

    @pytest.mark.parametrize("shift", [1.2e-4, -1.2e-4])
    def test_oracle_suite_command_exits_1_on_a_moved_l2_norm(self, tmp_path, monkeypatch, capsys, shift):
        from flowlab.cli import main

        closed_form = oracles.translate_lp_norm
        monkeypatch.setattr(oracles, "translate_lp_norm", lambda p, tau: closed_form(p, tau) + shift)
        assert main(["oracle-suite", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "oracle suite FAILED" in err and "translate_L2_norm" in err
        assert "Traceback" not in err


def _quadpack(f, breaks, **kw):
    """scipy.integrate.quad of a scalar integrand, one call per segment of ``breaks``."""
    from scipy import integrate

    return sum(integrate.quad(f, a, b, limit=400, **kw)[0] for a, b in zip(breaks[:-1], breaks[1:]))


def _gauss_pdf(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


class TestLegendreRuleMatchesQuadpack:
    """Every Gauss–Legendre oracle against scipy's adaptive QUADPACK within 1e-12."""

    def test_gaussian_moments_d1(self):
        m1 = oracles.gaussian_integral(np.abs)
        m2 = oracles.gaussian_integral(lambda x: np.exp((1 + np.abs(x)) ** 2 / 4.0))
        assert m1 == pytest.approx(_quadpack(lambda x: abs(x) * _gauss_pdf(x), (-40.0, 40.0)), abs=1e-12)
        assert m2 == pytest.approx(
            _quadpack(lambda x: math.exp((1 + abs(x)) ** 2 / 4.0) * _gauss_pdf(x), (-40.0, 40.0)), abs=1e-12
        )
        assert m1 == pytest.approx(oracles.gaussian_abs_moment(1), abs=1e-15)
        assert m2 == pytest.approx(oracles.m2_exponential_moment(1), abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_radial_m2(self, d):
        from scipy.special import gammaln

        def radial(r):
            log_dens = (d - 1) * math.log(r) - r * r / 2.0 - (d / 2.0 - 1) * math.log(2.0) - gammaln(d / 2.0)
            return math.exp((1.0 + r) ** 2 / 4.0 + log_dens)

        assert oracles.m2_exponential_moment(d) == pytest.approx(_quadpack(radial, (0.0, 60.0)), abs=1e-12)

    @pytest.mark.parametrize("x", [0.3, -1.2, 2.0])
    def test_smoothed_sign_and_gradient(self, x):
        eps = 1.0 / 8.0
        rho = math.exp(-eps)
        s = math.sqrt(1.0 - rho * rho)
        breaks = (-40.0, -rho * x / s, 40.0)
        sign = lambda y: math.copysign(1.0, rho * x + s * y)
        value, grad = oracles.smoothed_sign_quad(1.0, eps, x)
        assert value == pytest.approx(_quadpack(lambda y: sign(y) * _gauss_pdf(y), breaks, epsabs=1e-14), abs=1e-12)
        assert grad == pytest.approx(
            (rho / s) * _quadpack(lambda y: sign(y) * y * _gauss_pdf(y), breaks, epsabs=1e-14), abs=1e-12
        )
        assert value == pytest.approx(float(oracles.smoothed_sign(1.0, eps, x)), abs=1e-14)
        assert grad == pytest.approx(float(oracles.smoothed_sign_grad(1.0, eps, x)), abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_krylov_functional(self, x):
        from scipy.special import ndtr

        def integrand(t):
            rt = math.sqrt(t)
            return math.exp(-t) * (ndtr((1.0 - x) / rt) - ndtr(-x / rt))

        assert oracles.krylov_translate_functional(x, 1.0, 1.0) == pytest.approx(
            _quadpack(integrand, (0.0, 1.0)), abs=1e-12
        )

    @pytest.mark.parametrize("lam", [1e3, 1e6])
    def test_krylov_functional_at_a_large_discount(self, lam):
        # the graded breakpoints resolve e^{-λt}: at x = 0 the value tends to 1/(2λ)
        value = oracles.krylov_translate_functional(0.0, lam, 1.0)
        assert value == pytest.approx(0.5 / lam, rel=1e-9)


class TestLegendreRuleFailsLoudly:
    def test_jump_inside_a_panel_raises(self):
        with pytest.raises(OracleMismatchError, match="unresolved"):
            oracles._legendre_integral(lambda x: np.where(x < 0.3, 0.0, 1.0), (0.0, 1.0))

    def test_jump_at_a_breakpoint_is_exact(self):
        value = oracles._legendre_integral(lambda x: np.where(x < 0.3, 0.0, 1.0), (0.0, 0.3, 1.0))
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_oracle_suite_command_exits_1_without_traceback(self, tmp_path, monkeypatch, capsys):
        from flowlab.cli import main

        def unsplit_sign_quad(beta, eps, x):
            # the jump y = -ρx/s is not a breakpoint: the rule cannot resolve it
            rho = math.exp(-eps)
            s = math.sqrt(1.0 - rho * rho)
            sign_density = lambda y: beta * np.sign(rho * x + s * y) * np.exp(-y * y / 2.0) / math.sqrt(2.0 * math.pi)
            return oracles._legendre_integral(sign_density, (-40.0, 40.0)), 0.0

        monkeypatch.setattr(oracles, "smoothed_sign_quad", unsplit_sign_quad)
        assert main(["oracle-suite", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "oracle suite FAILED" in err and "unresolved" in err
        assert "Traceback" not in err


def test_flowlab_never_loads_scipy_integrate():
    """A fresh interpreter runs every oracle quadrature and Σ_T without scipy.integrate and its kin."""
    import flowlab

    script = (
        "import sys, numpy as np\n"
        "from flowlab import oracles\n"
        "from flowlab.coefficients import builtin_coefficients, validate_hypotheses\n"
        "from flowlab.gaussian import GaussianQuadrature\n"
        "oracles.gaussian_integral(np.abs)\n"
        "oracles.smoothed_sign_quad(1.0, 0.125, 0.3)\n"
        "oracles.krylov_translate_functional(0.0, 1.0, 1.0)\n"
        "oracles.m2_exponential_moment(2)\n"
        "validate_hypotheses(builtin_coefficients('ou_linear', d=1, a=1.0), 1.0,\n"
        "                    GaussianQuadrature.gauss_hermite(1, 32))\n"
        "heavy = ('scipy.integrate', 'scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(flowlab.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert res.stdout.strip() == ""

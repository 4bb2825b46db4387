import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from disttomo import experiments
from disttomo.model import GhMix, RoutingMatrix, gh_cdf, gh_mgf
from disttomo.simulate import SampleSet, sample_mix, sample_paths

TABLE1_RATES = (5.0, 3.0, 1.0)
LINK1 = GhMix(TABLE1_RATES, (0.17, 0.80, 0.03))
EXPT1 = RoutingMatrix(((1, 1, 0), (1, 0, 1)))
EXPT1_MIXES = [
    LINK1,
    GhMix(TABLE1_RATES, (0.13, 0.47, 0.40)),
    GhMix(TABLE1_RATES, (0.80, 0.15, 0.05)),
]


class TestSampleMix:
    def test_single_stage_mean(self):
        rng = np.random.default_rng(0)
        draws = sample_mix(GhMix((1.0,), (1.0,)), rng, size=10**6)
        assert draws.mean() == pytest.approx(1.0, abs=0.005)

    def test_table1_link1_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_mix(LINK1, rng, size=10**6)
        assert draws.mean() == pytest.approx(0.17 / 5 + 0.80 / 3 + 0.03, abs=0.01)

    def test_degenerate_weights_reduce_to_single_exponential(self):
        rng = np.random.default_rng(2)
        draws = sample_mix(GhMix(TABLE1_RATES, (1.0, 0.0, 0.0)), rng, size=10**5)
        assert np.mean(np.exp(-draws)) == pytest.approx(5.0 / 6.0, abs=0.01)

    def test_proper_mixture_ks(self):
        rng = np.random.default_rng(3)
        draws = sample_mix(LINK1, rng, size=20_000)
        stat = kstest(draws, lambda u: np.vectorize(gh_cdf)(LINK1, u))
        assert stat.pvalue > 0.01

    def test_signed_mixture_inverse_cdf_ks(self):
        mix = GhMix((5.0, 1.0), (-0.05, 1.05))
        rng = np.random.default_rng(4)
        draws = sample_mix(mix, rng, size=10_000)
        stat = kstest(draws, lambda u: np.vectorize(gh_cdf)(mix, u))
        assert stat.pvalue > 0.01

    def test_signed_mixture_with_large_delays_terminates(self, package_env):
        # Past delays of about 4,500 a bisection bracket can stick one float
        # spacing wide, above the 1e-12 stop; a subprocess with a timeout
        # turns a sampler that never returns into a failure.
        mix = GhMix((1e-4, 2e-4), (2.0, -1.0))
        code = (
            "import sys, numpy as np\n"
            "from disttomo.model import GhMix\n"
            "from disttomo.simulate import sample_mix\n"
            f"mix = GhMix({mix.rates!r}, {mix.weights!r})\n"
            "np.save(sys.stdout.buffer, sample_mix(mix, np.random.default_rng(0), 1000))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=package_env, capture_output=True, check=True,
            timeout=60,
        ).stdout
        draws = np.load(io.BytesIO(out))
        assert draws.shape == (1000,) and draws.max() > 4500
        assert kstest(draws, lambda u: np.vectorize(gh_cdf)(mix, u)).pvalue > 0.01

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            sample_mix(LINK1, np.random.default_rng(0), size=0)


def _choice_draw(mix, rng, size):
    """The proper-mixture draw written with ``Generator.choice`` and a scaled
    ``Generator.exponential``: the stream ``sample_mix`` keeps, bit for bit."""
    stages = rng.choice(mix.n_stages, size=size, p=mix.weights)
    return rng.exponential(scale=(1.0 / np.asarray(mix.rates))[stages])


def _stream_pin_mixes():
    links = [
        mix for name in ("expt1", "expt2", "expt3")
        for mix in experiments.get_setup(name).mixes()
    ]
    rng = np.random.default_rng(300)
    weights = rng.dirichlet(np.ones(300))
    weights /= weights.sum()
    return links + [
        GhMix((2.0,), (1.0,)),
        GhMix(TABLE1_RATES, (1.0, 0.0, 0.0)),
        GhMix(TABLE1_RATES, (0.0, 1.0, 0.0)),
        GhMix(tuple(np.linspace(300.0, 1.0, 300)), tuple(weights)),
    ]


class TestStreamPin:
    @pytest.mark.parametrize("mix", _stream_pin_mixes(), ids=lambda m: f"{m.n_stages}-stage")
    def test_proper_mixture_matches_choice_draw(self, mix):
        for seed in range(4):
            for size in (1, 7, 5000):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_mix(mix, ours, size)
                want = _choice_draw(mix, ref, size)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                # both consumed the same stretch of the stream
                assert ours.random() == ref.random()

    @pytest.mark.parametrize("name, digest", [
        ("expt1", "0cb31ce94b9010e328c0137c573f1af6711980601fd33562dae55681f4207cb6"),
        ("expt2", "2889c93a46ddbdbf20f11b31588c0e21f758917b3fe4134369ae54715b9a7c26"),
        ("expt3", "9d975ed577de17f0f342b3db43bd03df6d14186f5de7cf274fb14abf0d7e8e70"),
    ])
    def test_sample_paths_digest(self, name, digest):
        setup = experiments.get_setup(name)
        h = hashlib.sha256()
        for y in sample_paths(setup.matrix, setup.mixes(), 10**6, seed=0).samples:
            h.update(y.tobytes())
        assert h.hexdigest() == digest


class TestSamplePaths:
    def test_determinism(self):
        a = sample_paths(EXPT1, EXPT1_MIXES, 500, seed=42)
        b = sample_paths(EXPT1, EXPT1_MIXES, 500, seed=42)
        for ya, yb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(ya, yb)

    def test_different_seeds_differ(self):
        a = sample_paths(EXPT1, EXPT1_MIXES, 100, seed=0)
        b = sample_paths(EXPT1, EXPT1_MIXES, 100, seed=1)
        assert not np.array_equal(a.samples[0], b.samples[0])

    def test_path_means_add(self):
        ss = sample_paths(EXPT1, EXPT1_MIXES, 10**5, seed=7)
        mean1 = 0.17 / 5 + 0.80 / 3 + 0.03 + 0.13 / 5 + 0.47 / 3 + 0.40
        assert ss.samples[0].mean() == pytest.approx(mean1, rel=0.01)

    def test_single_link_path_matches_direct_draws(self):
        a = RoutingMatrix(((1, 1), (0, 1)))
        mixes = [LINK1, GhMix(TABLE1_RATES, (0.80, 0.15, 0.05))]
        ss = sample_paths(a, mixes, 20_000, seed=9)
        direct = sample_mix(mixes[1], np.random.default_rng(1234), size=20_000)
        assert ks_2samp(ss.samples[1], direct).pvalue > 0.01

    def test_mgf_product_law(self):
        # Empirical path MGF factors into the product of link MGFs.
        rng = np.random.default_rng(13)
        n = 50_000
        ss = sample_paths(EXPT1, EXPT1_MIXES, n, seed=21)
        for _ in range(5):
            t = float(rng.uniform(0.2, 4.0))
            emp = float(np.mean(np.exp(-t * ss.samples[0])))
            exact = gh_mgf(EXPT1_MIXES[0], t) * gh_mgf(EXPT1_MIXES[1], t)
            assert abs(emp - exact) < 4.0 / np.sqrt(n)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_paths(EXPT1, EXPT1_MIXES, 0, seed=0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="link distributions"):
            sample_paths(EXPT1, EXPT1_MIXES[:2], 10, seed=0)

    def test_warns_on_non_identifiable(self):
        a = RoutingMatrix(((1, 1), (1, 1)))
        with pytest.warns(UserWarning, match="not 1-identifiable"):
            sample_paths(a, EXPT1_MIXES[:2], 10, seed=0)


class TestSampleSet:
    def test_counts_and_readonly(self):
        ss = sample_paths(EXPT1, EXPT1_MIXES, 25, seed=0)
        assert ss.counts() == (25, 25)
        assert ss.n_paths == 2
        with pytest.raises(ValueError):
            ss.samples[0][0] = -1.0

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="negative"):
            SampleSet(samples=(np.array([-1.0, 2.0]),), seed=0)

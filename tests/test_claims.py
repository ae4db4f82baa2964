"""Planted truth under the shipped defaults: what each method recovers on
acceptance criterion 5's fixture (200 x 100, 10 planted features at
separation 4.0, p = 10), measured with the functions that
``scripts/claims.py`` prints its table with."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claims.py"
PLANTED = 10


@pytest.fixture(scope="module")
def claims():
    spec = importlib.util.spec_from_file_location("claims", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def shipped(claims):
    """The fixture, the config and the result of every method over 3 repetitions."""
    return claims.run(4.0, n=200, d=100, informative=PLANTED, reps=3, p_grid=(10,))


def hits(claims, shipped, method):
    _, _, result = shipped
    return [claims.planted_hits(rec.selected_features, PLANTED)
            for rec in result.reports[method].records]


def test_planted_hits_counts_the_planted_names(claims):
    assert claims.planted_hits(("f0000", "f0009", "f0010", "g0001"), PLANTED) == 2
    assert claims.planted_hits((), PLANTED) == 0


def test_noise_floor_leaves_out_the_planted_features(claims, shipped):
    X, config, result = shipped
    Xp = claims.resample(X, config, result.reports["skm"].records[0].seed)
    mean, low, high = claims.noise_floor([Xp], 10, informative=PLANTED)
    assert low < mean < high
    # sets drawn from every feature take planted pairs, correlated at about 0.8
    assert claims.noise_floor([Xp], 10, informative=0)[0] > high
    assert claims.noise_floor([Xp], 10, informative=PLANTED) == (mean, low, high)  # seeded


def test_skm_recovers_the_planted_features(claims, shipped):
    assert min(hits(claims, shipped, "skm")) >= 9


def test_spec_finds_no_planted_feature(claims, shipped):
    """SPEC ranks features by their smoothness on the sample graph and hits
    0 of 10 here. A change that makes it find planted features must be
    declared."""
    assert max(hits(claims, shipped, "spec")) <= 1


def test_lkfs_with_the_shipped_network_selects_noise(claims, shipped):
    """This documents a defect; it does not endorse it. The 50-d latent's
    median-bandwidth Gaussian kernel is nearly constant, so the greedy
    aligns with noise: lkfs hits at most 3 of 10 planted features, and its
    RED lies inside the 5-95% band of random non-planted sets on the same
    resample. Centred kernel-target alignment (ROADMAP item 21) is the fix;
    a method that carries it must clear this band."""
    X, config, result = shipped
    assert max(hits(claims, shipped, "lkfs")) <= 3
    for rec in result.reports["lkfs"].records:
        _, low, high = claims.noise_floor([claims.resample(X, config, rec.seed)], 10, PLANTED)
        assert low <= rec.red <= high, rec.repetition

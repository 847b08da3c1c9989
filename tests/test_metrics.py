import numpy as np
import pytest

from cellens import (EmptyTruth, InvalidConfig, ShapeMismatch, make_rng, mspe,
                     selection_scores, timed)


def test_mspe_zero_when_exact():
    y = np.arange(5.0)
    assert mspe(y, y) == 0.0


def test_mspe_constant_error():
    y = np.zeros(8)
    assert mspe(y, y + 2.0) == pytest.approx(4.0)


def test_mspe_times_m_equals_sse():
    rng = make_rng(1)
    y = rng.standard_normal(137)
    yh = rng.standard_normal(137)
    sse = float(np.sum((y - yh) ** 2))
    assert mspe(y, yh) * 137 == pytest.approx(sse, abs=1e-12)


def test_mspe_normalized_approaches_one():
    rng = make_rng(2)
    m = 100_000
    noise_sd = 1.7
    signal = rng.standard_normal(m)
    y = signal + noise_sd * rng.standard_normal(m)
    val = mspe(y, signal, noise_var=noise_sd**2)
    assert abs(val - 1.0) < 0.03


def test_mspe_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mspe(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("noise_var", [0.0, -1.0, np.inf, -np.inf, np.nan,
                                       True, "1.0", None])
def test_mspe_rejects_bad_noise_var(noise_var):
    with pytest.raises(InvalidConfig, match="noise_var"):
        mspe(np.zeros(3), np.ones(3), noise_var=noise_var)


def test_mspe_accepts_numpy_noise_var():
    assert mspe(np.zeros(4), np.ones(4), noise_var=np.float64(0.5)) == 2.0


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_mspe_rejects_empty_input(shape):
    with pytest.raises(ShapeMismatch, match=r"got shape \(0,"):
        mspe(np.zeros(shape), np.zeros(shape))


def test_selection_scores_examples():
    rc, pr = selection_scores({1, 2, 3}, {2, 3, 4})
    assert rc == pytest.approx(2 / 3)
    assert pr == pytest.approx(2 / 3)
    assert selection_scores({1, 2}, {1, 2}) == (1.0, 1.0)
    rc0, pr0 = selection_scores({1, 2}, set())
    assert rc0 == 0.0 and pr0 is None


def test_selection_scores_empty_truth():
    with pytest.raises(EmptyTruth):
        selection_scores(set(), {1})


def test_selection_scores_relabeling_symmetry():
    rng = make_rng(3)
    perm = rng.permutation(50)
    true = {3, 11, 20}
    sel = {11, 20, 41}
    base = selection_scores(true, sel)
    mapped = selection_scores({int(perm[j]) for j in true},
                              {int(perm[j]) for j in sel})
    assert base == mapped


def test_timed_noop_fast():
    _, secs = timed(lambda: None)
    assert secs < 1e-3


def test_timed_busyloop_sane():
    import time

    def work():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        return 42

    result, secs = timed(work)
    assert result == 42
    assert 0.04 < secs < 0.5

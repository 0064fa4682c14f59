import pytest

from e2ebench.stats import TooFewSamples, median, percentile, relative_spread, samples_needed


def test_p90_needs_a_hundred_samples():
    assert samples_needed(90) == 100
    values = [float(i) for i in range(1, 100)]
    with pytest.raises(TooFewSamples, match="needs 100 samples"):
        percentile(values, 90)
    assert percentile(values + [100.0], 90) == 90.0


def test_percentile_is_a_nearest_rank_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # 100 samples
    assert percentile(values, 90) == 5.0
    assert median(values) == 3.0
    assert median([7.0]) == 7.0


def test_empty_samples_are_refused():
    with pytest.raises(TooFewSamples):
        percentile([], 90)
    with pytest.raises(TooFewSamples):
        median([])


def test_median_and_spread():
    assert median([3.0, 1.0, 2.0, 4.0]) == 2.5
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)

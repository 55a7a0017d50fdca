import random

import pytest

from stats import quartile_spread, tail_percentile


def test_tail_is_the_sample_with_exactly_ten_above_it():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert tail_percentile(samples) == (90.0, 90, 10)


def test_tail_percentile_follows_the_sample_count():
    pct, value, beyond = tail_percentile([float(v) for v in range(37)])
    assert beyond == 10
    assert value == 26.0  # 10 of the 37 samples (27..36) lie above it
    assert pct == pytest.approx(100.0 * 27 / 37)


def test_eleven_samples_put_the_tail_at_the_minimum():
    assert tail_percentile([5.0] + [9.0] * 10) == (100.0 / 11, 5.0, 10)


def test_ten_or_fewer_samples_report_the_maximum_with_nothing_beyond():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert tail_percentile([float(v) for v in range(10)]) == (100.0, 9.0, 0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_quartile_spread_is_relative_to_the_median():
    # statistics.quantiles gives q1 = 1.5, median = 4, q3 = 6.5 here
    assert quartile_spread([1, 2, 4, 6, 7]) == pytest.approx((6.5 - 1.5) / 4)

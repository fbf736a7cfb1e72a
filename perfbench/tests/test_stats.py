import pytest

from stats import percentile, quartiles, spread, supported_quantile


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None),          # fewer than 10 beyond the median
    (20, 0.50), (99, 0.50),
    (100, 0.90), (999, 0.90),       # p99 of 999 leaves 9.99 beyond it
    (1000, 0.99), (9999, 0.99),
    (10_000, 0.999), (100_000, 0.9999),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_quantile(n) == expected


def test_percentile_interpolates_and_tolerates_empty():
    assert percentile([], 0.99) == 0.0
    assert percentile([7.0], 0.5) == 7.0
    assert percentile([0.0, 10.0], 0.5) == 5.0
    assert percentile(list(range(101)), 0.99) == 99.0


def test_quartiles_are_the_drivers():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert spread(values) == pytest.approx(1.0)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)

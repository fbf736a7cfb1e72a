from compare import verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def shifted(values, factor):
    return [v * factor for v in values]


def test_a_gain_must_win_nine_pairs_in_ten_and_clear_the_spread():
    assert verdict(STEADY, shifted(STEADY, 0.9), "lower", 0.1) == "improved"
    assert verdict(STEADY, shifted(STEADY, 1.1), "higher", 0.1) == "improved"
    # Inside A's own interquartile distance: not a gain.
    assert verdict(STEADY, shifted(STEADY, 0.998), "lower", 0.1) == "unchanged"


def test_worse_by_more_than_the_bound_is_a_regression():
    assert verdict(STEADY, shifted(STEADY, 1.2), "lower", 0.1) == "regressed"
    assert verdict(STEADY, shifted(STEADY, 0.8), "higher", 0.1) == "regressed"
    assert verdict(STEADY, shifted(STEADY, 1.05), "lower", 0.1) == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 95.0]
    assert verdict(noisy, shifted(STEADY, 2.0), "lower", 0.1) == "unresolved"
    assert verdict(STEADY, noisy, "lower", 0.1) == "unresolved"

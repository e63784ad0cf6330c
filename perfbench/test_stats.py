import pytest

from perfbench.stats import tail_percentile


@pytest.mark.parametrize(
    "n, want",
    [(1, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want

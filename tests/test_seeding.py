"""Per-consumer random streams and block-drawn normal rows."""

import pytest

from helm_bench.seeding import BLOCK_ROWS, normal_rows, stream

SCALES = (0.02, 0.0, 0.01)  # one sigma of 0: it still consumes its draw


class TestNormalRows:
    def test_rows_equal_per_call_draws_across_block_boundaries(self):
        n = 2 * BLOCK_ROWS + 5
        rows = list(normal_rows(stream(7, "imu"), SCALES, n))
        rng = stream(7, "imu")
        want = [[rng.normal(0.0, s).hex() for s in SCALES] for _ in range(n)]
        assert len(rows) == n
        assert [[v.hex() for v in row] for row in rows] == want

    def test_scalar_scale_yields_floats(self):
        n = BLOCK_ROWS + 3
        values = list(normal_rows(stream(7, "lidar"), 0.1, n))
        rng = stream(7, "lidar")
        assert all(type(v) is float for v in values)
        assert [v.hex() for v in values] == [rng.normal(0.0, 0.1).hex() for _ in range(n)]

    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    def test_draws_no_more_rows_than_asked(self, n):
        rng, ref = stream(3, "imu"), stream(3, "imu")
        list(normal_rows(rng, SCALES, n))
        ref.normal(0.0, 1.0, size=3 * n)
        assert rng.normal() == ref.normal()

    def test_draws_one_block_at_a_time(self):
        rng, ref = stream(3, "imu"), stream(3, "imu")
        next(normal_rows(rng, SCALES, 10**7))
        ref.normal(0.0, 1.0, size=3 * BLOCK_ROWS)
        assert rng.normal() == ref.normal()

    def test_zero_rows_draws_nothing(self):
        rng, ref = stream(3, "imu"), stream(3, "imu")
        assert list(normal_rows(rng, SCALES, 0)) == []
        assert rng.normal() == ref.normal()


def test_streams_are_independent_per_label():
    assert stream(1, "imu").normal() != stream(1, "lidar").normal()
    assert stream(1, "imu").normal() == stream(1, "imu").normal()

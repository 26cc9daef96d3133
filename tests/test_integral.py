import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from facedet.integral import _tilted_scatter, integral_set, upright_table, window_sigma
from oracles import rect_sum, tilted_rect_sum
from oracles import window_sigma as window_sigma_oracle

small_images = arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16)))


def tilted_grids_oracle(img):
    """One masked scatter and one pair of cumsums per parity."""
    h, w = img.shape
    voff = (w - 1) + ((w - 1) & 1)
    umax = (w - 1) + (h - 1)
    vmax = (h - 1) + voff
    ys, xs = np.indices((h, w))
    u = xs + ys
    v = ys - xs + voff
    grids = []
    for parity in (0, 1):
        m = (u & 1) == parity
        nu = max(0, (umax - parity) // 2 + 1)
        nv = max(0, (vmax - parity) // 2 + 1)
        g = np.zeros((nu + 1, nv + 1), dtype=np.int64)
        g[(u[m] - parity) // 2 + 1, (v[m] - parity) // 2 + 1] = img[m]
        np.cumsum(g, axis=0, out=g)
        np.cumsum(g, axis=1, out=g)
        grids.append(g)
    return grids[0], grids[1], voff


def assert_planes_match_oracle(planes, voff, img):
    """Parity p's table is the leading block of plane p; the even one fills
    its plane."""
    want_even, want_odd, want_voff = tilted_grids_oracle(img)
    assert voff == want_voff
    assert planes.shape[-2:] == want_even.shape
    for plane, want in zip(planes, (want_even, want_odd)):
        got = plane[: want.shape[0], : want.shape[1]]
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def int64_copy_oracle(img, with_tilted):
    """The tables as first built: from an int64 copy of the image and an
    int64 array of its squares, each into fresh zeroed arrays."""
    vals = np.asarray(img).astype(np.int64)
    lead, (h, w) = vals.shape[:-2], vals.shape[-2:]

    def table(v):
        grid = np.zeros(lead + (h + 1, w + 1), dtype=np.int64)
        np.cumsum(v, axis=-2, out=grid[..., 1:, 1:])
        np.cumsum(grid[..., 1:, 1:], axis=-1, out=grid[..., 1:, 1:])
        return grid

    planes, voff = None, 0
    if with_tilted:
        index, shape, voff = _tilted_scatter(h, w)
        planes = np.zeros(lead + shape, dtype=np.int64)
        planes.reshape(lead + (-1,))[..., index] = vals.reshape(lead + (-1,))
        np.cumsum(planes, axis=-2, out=planes)
        np.cumsum(planes, axis=-1, out=planes)
    return table(vals), table(vals * vals), planes, voff


def assert_sets_equal(got, want):
    grid, sq, planes, voff = want
    assert got.grid.dtype == got.sq.dtype == np.int64
    assert np.array_equal(got.grid, grid) and np.array_equal(got.sq, sq) and got.voff == voff
    assert (got.planes is None) == (planes is None)
    assert got.planes is None or (got.planes.dtype == np.int64 and np.array_equal(got.planes, planes))


def brute_prefix(img, x, y):
    return int(img[:y, :x].sum())


def brute_upright(img, rect):
    x, y, w, h = rect
    return int(img[y : y + h, x : x + w].sum())


def tilted_pixels(rect):
    x, y, w, h = rect
    return [(x + i - j, y + i + j) for i in range(w) for j in range(h)]


def brute_tilted(img, rect):
    return int(sum(int(img[py, px]) for px, py in tilted_pixels(rect)))


def tilted_rect_fits(shape, rect):
    h, w = shape
    return all(0 <= px < w and 0 <= py < h for px, py in tilted_pixels(rect))


def random_tilted_rect(rng, shape):
    h, w = shape
    for _ in range(100):
        aw = int(rng.integers(1, w + 1))
        ah = int(rng.integers(1, h + 1))
        x = int(rng.integers(0, w))
        y = int(rng.integers(0, h))
        if tilted_rect_fits(shape, (x, y, aw, ah)):
            return (x, y, aw, ah)
    return (int(rng.integers(0, w)), int(rng.integers(0, h)), 1, 1)


class TestUpright:
    def test_two_by_two_interior_corner(self):
        ii = integral_set(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert ii.grid[2, 2] == 10

    def test_zero_image_all_zero(self):
        ii = integral_set(np.zeros((5, 5), dtype=np.uint8))
        assert np.all(ii.grid == 0)

    def test_every_entry_matches_double_loop(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        ii = integral_set(img)
        for y in range(9):
            for x in range(9):
                assert ii.grid[y, x] == brute_prefix(img, x, y)

    def test_zero_row_and_column(self):
        rng = np.random.default_rng(6)
        ii = integral_set(rng.integers(0, 256, size=(4, 7), dtype=np.uint8))
        assert np.all(ii.grid[0, :] == 0)
        assert np.all(ii.grid[:, 0] == 0)

    def test_monotone_along_rows_and_columns(self):
        rng = np.random.default_rng(7)
        ii = integral_set(rng.integers(0, 256, size=(6, 6), dtype=np.uint8))
        assert np.all(np.diff(ii.grid, axis=0) >= 0)
        assert np.all(np.diff(ii.grid, axis=1) >= 0)

    def test_squared_companion(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        ii = integral_set(img)
        assert ii.sq[5, 5] == int((img.astype(np.int64) ** 2).sum())


class TestRectSum:
    def test_full_image(self):
        ii = integral_set(np.array([[1, 2], [3, 4]], dtype=np.uint8))
        assert rect_sum(ii, (0, 0, 2, 2)) == 10

    def test_zero_area(self):
        ii = integral_set(np.full((4, 4), 9, dtype=np.uint8))
        assert rect_sum(ii, (1, 1, 0, 3)) == 0
        assert rect_sum(ii, (1, 1, 3, 0)) == 0

    def test_random_rects_match_pixel_loop(self):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        ii = integral_set(img)
        for _ in range(200):
            w = int(rng.integers(0, 17))
            h = int(rng.integers(0, 17))
            x = int(rng.integers(0, 17 - w))
            y = int(rng.integers(0, 17 - h))
            assert rect_sum(ii, (x, y, w, h)) == brute_upright(img, (x, y, w, h))

    def test_out_of_bounds_rejected(self):
        ii = integral_set(np.zeros((4, 4), dtype=np.uint8))
        for rect in [(-1, 0, 2, 2), (0, 0, 5, 1), (3, 3, 2, 2)]:
            with pytest.raises(ValueError):
                rect_sum(ii, rect)


class TestTilted:
    def test_single_pixels(self):
        rng = np.random.default_rng(10)
        img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        ti = integral_set(img)
        for y in range(5):
            for x in range(7):
                assert tilted_rect_sum(ti, (x, y, 1, 1)) == img[y, x]

    def test_diamond_matches_pixel_loop(self):
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
        ti = integral_set(img)
        for _ in range(300):
            rect = random_tilted_rect(rng, img.shape)
            assert tilted_rect_sum(ti, rect) == brute_tilted(img, rect)

    def test_out_of_bounds_rejected(self):
        ti = integral_set(np.zeros((4, 4), dtype=np.uint8))
        for rect in [(0, 0, 1, 2), (3, 0, 2, 1), (0, 3, 2, 2)]:
            with pytest.raises(ValueError):
                tilted_rect_sum(ti, rect)

    def test_zero_area(self):
        ti = integral_set(np.full((4, 4), 9, dtype=np.uint8))
        assert tilted_rect_sum(ti, (2, 1, 0, 1)) == 0

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (1, 10), (9, 1), (10, 1), (7, 12), (12, 7), (24, 24), (240, 320)]
    )
    def test_grids_match_two_pass_oracle(self, shape):
        img = np.random.default_rng(shape[0] * 1000 + shape[1]).integers(0, 256, size=shape, dtype=np.uint8)
        iset = integral_set(img)
        assert_planes_match_oracle(iset.planes, iset.voff, img)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 12), (240, 320)])
    def test_cached_scatter_equals_uncached_build(self, shape):
        cached = _tilted_scatter(*shape)
        assert _tilted_scatter(*shape) is cached
        index, *rest = _tilted_scatter.__wrapped__(*shape)
        assert cached[1:] == tuple(rest)
        assert np.array_equal(cached[0], index) and not cached[0].flags.writeable
        stack = np.random.default_rng(shape[0] + shape[1]).integers(0, 256, size=(3, *shape), dtype=np.uint8)
        for _ in range(2):  # a fresh and a cached scatter index
            iset = integral_set(stack)
            for i, img in enumerate(stack):
                assert_planes_match_oracle(iset.planes[i], iset.voff, img)

    @given(small_images)
    @settings(max_examples=60, deadline=None)
    def test_grids_match_two_pass_oracle_property(self, img):
        iset = integral_set(img)
        assert_planes_match_oracle(iset.planes, iset.voff, img)


class TestStacks:
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)).flatmap(lambda shape: arrays(np.uint8, shape)),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_its_slices_property(self, stack, with_tilted):
        got = integral_set(stack, with_tilted)
        for i, img in enumerate(stack):
            want = integral_set(img, with_tilted)
            assert np.array_equal(got.grid[i], want.grid) and np.array_equal(got.sq[i], want.sq)
            assert got.voff == want.voff
            assert (got.planes is None) == (want.planes is None) == (not with_tilted)
            assert got.planes is None or np.array_equal(got.planes[i], want.planes)

    @pytest.mark.parametrize("base", [1, 8, 24])
    def test_window_sigma_of_a_stack_equals_the_per_sample_oracle(self, base):
        rng = np.random.default_rng(base)
        stack = rng.integers(0, 256, size=(5, base, base), dtype=np.uint8)
        stack[0] = 7  # a flat sample: sigma is floored at 1
        got = window_sigma(integral_set(stack), base, 1)
        assert got.shape == (5, 1, 1)
        for i, img in enumerate(stack):
            assert got[i, 0, 0] == window_sigma_oracle(integral_set(img), 0, 0, base)

    @pytest.mark.parametrize("size, step", [(1, 1), (3, 2), (5, 3), (9, 4)])
    def test_window_sigma_of_a_lattice_equals_the_oracle(self, size, step):
        img = np.random.default_rng(size).integers(0, 256, size=(17, 23), dtype=np.uint8)
        iset = integral_set(img)
        got = window_sigma(iset, size, step)
        for j, y in enumerate(range(0, 17 - size + 1, step)):
            for i, x in enumerate(range(0, 23 - size + 1, step)):
                assert got[j, i] == window_sigma_oracle(iset, x, y, size)

    @given(
        st.sampled_from([np.uint8, np.bool_, np.uint16, np.int64]),
        st.sampled_from([(), (3,)]),
        st.integers(1, 13),
        st.integers(1, 13),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_built_from_any_integer_pixels_equals_the_int64_copy_oracle(self, dtype, lead, h, w, with_tilted, seed):
        rng = np.random.default_rng(seed)
        top = {np.uint8: 256, np.bool_: 2, np.uint16: 2**16, np.int64: 2**24}[dtype]
        img = rng.integers(0, top, size=lead + (h, w)).astype(dtype)
        assert_sets_equal(integral_set(img, with_tilted), int64_copy_oracle(img, with_tilted))
        # a non-contiguous view of the pixels
        view = np.repeat(img, 2, axis=-1)[..., ::2]
        assert_sets_equal(integral_set(view, with_tilted), int64_copy_oracle(img, with_tilted))

    @given(st.sampled_from([(), (2,)]), st.integers(1, 12), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_a_refill_equals_a_fresh_build(self, lead, h, w, with_tilted, seed):
        rng = np.random.default_rng(seed)
        first, second = (rng.integers(0, 256, size=lead + (h, w), dtype=np.uint8) for _ in range(2))
        tables = integral_set(first, with_tilted)
        arrays_before = [a for a in (tables.grid, tables.sq, tables.planes) if a is not None]
        refilled = integral_set(second, with_tilted, out=tables)
        assert refilled is tables
        assert all(a is b for a, b in zip(arrays_before, (tables.grid, tables.sq, tables.planes)))
        assert_sets_equal(refilled, int64_copy_oracle(second, with_tilted))
        # without out, every build has arrays of its own
        again = integral_set(first, with_tilted)
        assert not any(np.shares_memory(a, b) for a, b in zip((again.grid, again.sq), (tables.grid, tables.sq)))

    def test_refill_of_another_shape_or_table_set_is_refused(self):
        tables = integral_set(np.zeros((4, 5), dtype=np.uint8), with_tilted=False)
        for img, with_tilted in [(np.zeros((5, 4)), False), (np.zeros((2, 4, 5)), False), (np.zeros((4, 5)), True)]:
            with pytest.raises(ValueError, match="refill"):
                integral_set(img, with_tilted, out=tables)

    def test_upright_table_is_the_set_grid(self):
        mask = np.random.default_rng(3).integers(0, 2, size=(9, 13)) > 0
        table = upright_table(mask)
        assert table.dtype == np.int64
        assert np.array_equal(table, integral_set(mask.astype(np.uint8), with_tilted=False).grid)


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 1 << 30))
@settings(max_examples=80, deadline=None)
def test_origins_match_the_parity_cell_formula_property(h, w, seed):
    rng = np.random.default_rng(seed)
    iset = integral_set(np.zeros((h, w), dtype=np.uint8))
    n = int(rng.integers(1, 30))
    xs = rng.integers(0, w, size=n)
    ys = rng.integers(0, h, size=n)
    up, cells, parity = iset.origins(xs, ys)
    assert np.array_equal(up, ys * (w + 1) + xs)
    cols = iset.planes.shape[-1]
    assert np.array_equal(parity, (xs + ys) % 2)
    for x, y, q, cell in zip(xs, ys, parity, cells):
        # the oracle's cell of an apex of parity q, in plane 0's numbering
        assert cell == ((x + y - q) // 2) * cols + (y - x + iset.voff - q) // 2
    assert len(integral_set(np.zeros((h, w), dtype=np.uint8), with_tilted=False).origins(xs, ys)) == 1


@given(small_images, st.integers(0, 1 << 30))
@settings(max_examples=120, deadline=None)
def test_rect_sum_equals_brute_force_property(img, seed):
    rng = np.random.default_rng(seed)
    iset = integral_set(img)
    h, w = img.shape
    rw = int(rng.integers(0, w + 1))
    rh = int(rng.integers(0, h + 1))
    rx = int(rng.integers(0, w - rw + 1))
    ry = int(rng.integers(0, h - rh + 1))
    assert rect_sum(iset, (rx, ry, rw, rh)) == brute_upright(img, (rx, ry, rw, rh))
    trect = random_tilted_rect(rng, img.shape)
    assert tilted_rect_sum(iset, trect) == brute_tilted(img, trect)

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qbrolin.grids import SliceGrid
from raster_refs import ref_mesh

coords = st.floats(min_value=-3, max_value=3, allow_nan=False)


@st.composite
def grids(draw):
    """Off-centre grids with square cells, sides 2 to 1025, nx != ny too."""
    nx, ny = draw(st.integers(2, 1025)), draw(st.integers(2, 1025))
    h = draw(st.floats(min_value=2.0 ** -8, max_value=0.5))
    a0, b0 = draw(coords), draw(coords)
    return SliceGrid(a0, a0 + h * (nx - 1), b0, b0 + h * (ny - 1), nx, ny)


@example(SliceGrid.square(0j, 2.0, 1.0 / 256))       # 1025^2, a 0 node
@example(SliceGrid.square(0.3 - 0.7j, 1.8, 1.0 / 128))
@example(SliceGrid(-0.0, 1.0, -1.0, -0.0, 5, 5))     # signed-zero ends
@given(grids())
@settings(max_examples=60, deadline=None)
def test_mesh_matches_the_former_meshgrid_bit_for_bit(grid):
    got, want = grid.mesh(), ref_mesh(grid)
    assert got.shape == want.shape == (grid.ny, grid.nx)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if grid.beta_min != -grid.beta_max:   # not symmetric: linspace's bytes
        old = np.linspace(grid.beta_min, grid.beta_max, grid.ny)
        assert grid.betas().tobytes() == old.tobytes()


@st.composite
def symmetric_grids(draw):
    """Grids symmetric about the real axis, nx != ny too."""
    nx, ny = draw(st.integers(2, 1025)), draw(st.integers(2, 1025))
    h = draw(st.floats(min_value=2.0 ** -8, max_value=0.5))
    a0, b = draw(coords), h * (ny - 1) / 2
    return SliceGrid(a0, a0 + h * (nx - 1), -b, b, nx, ny)


# 462 and 923 rows at half-width 1.8, the CLI configs' 513, 468 rows
# centred off 0 in alpha, and a dyadic grid
@example(SliceGrid.square(0j, 1.8, 1.0 / 128))
@example(SliceGrid.square(0j, 1.8, 1.0 / 256))
@example(SliceGrid.square(0j, 1.8, 0.00703125))
@example(SliceGrid.square(0.3 + 0j, 0.7, 0.003))
@example(SliceGrid.square(0j, 2.0, 1.0 / 256))
@given(symmetric_grids())
@settings(max_examples=60, deadline=None)
def test_symmetric_grid_rows_are_mirror_exact_within_an_ulp_of_linspace(grid):
    b = grid.betas()
    old = np.linspace(grid.beta_min, grid.beta_max, grid.ny)
    # equal as values is equal bit for bit but for the sign of a zero, and
    # the zero an odd row count has is +0.0
    assert np.array_equal(b[::-1], -b) and not np.signbit(b[b == 0]).any()
    assert np.all(np.abs(b - old) <= np.spacing(grid.beta_max))
    assert np.array_equal(grid.alphas(),
                          np.linspace(grid.alpha_min, grid.alpha_max, grid.nx))


def test_mirror_exact_rows_move_off_linspace_only_where_it_was_not():
    for half_width, h in ((1.8, 1.0 / 128), (1.8, 1.0 / 256)):
        grid = SliceGrid.square(0j, half_width, h)
        old = np.linspace(-half_width, half_width, grid.ny)
        assert np.isin(old, -old).mean() < 0.45          # 41.6%, 41.1%
        assert np.count_nonzero(grid.betas() != old) > grid.ny // 3
    # dyadic nodes are exact, so linspace was mirror-exact already
    grid = SliceGrid.square(0j, 2.0, 1.0 / 256)
    assert grid.betas().tobytes() == np.linspace(-2.0, 2.0, 1025).tobytes()

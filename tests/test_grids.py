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

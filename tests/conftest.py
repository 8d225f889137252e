import bisect
import math

import pytest

from bevkit.geom import CameraIntrinsics


@pytest.fixture
def default_k() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@pytest.fixture
def small_k() -> CameraIntrinsics:
    return CameraIntrinsics(fx=8.0, fy=8.0, cx=4.0, cy=4.0, width=8, height=8)


class CellOracle:
    """Scalar BEV cell lookup on stdlib ``bisect``, independent of the
    grid module's numpy code, applying the documented boundary rules:
    bin i holds edges[i] <= v < edges[i+1], v == the upper end of the range
    goes to the last bin, and a value outside the range, NaN or infinite
    is -1.  Depth bins bisect the grid's explicit depth edges; lateral bins
    bisect x's float64 offset from x_min in cell widths among the integer
    cell boundaries, the uniform axis's rule."""

    def depth_bin(self, z, g) -> int:
        z, edges = float(z), g.depth_edges.tolist()
        if not (math.isfinite(z) and edges[0] <= z <= edges[-1]):
            return -1
        return min(bisect.bisect_right(edges, z) - 1, g.n_z - 1)

    def lateral_bin(self, x, g) -> int:
        x, (lo, hi) = float(x), g.x_range
        if not (math.isfinite(x) and lo <= x <= hi):
            return -1
        offset = (x - lo) / g.lateral_width
        return min(bisect.bisect_right(range(g.n_x + 1), offset) - 1, g.n_x - 1)

    def cell(self, x, z, g) -> int:
        i_z, i_x = self.depth_bin(z, g), self.lateral_bin(x, g)
        return -1 if i_z < 0 or i_x < 0 else i_z * g.n_x + i_x


@pytest.fixture(scope="session")
def cell_oracle() -> CellOracle:
    return CellOracle()

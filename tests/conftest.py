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
    is -1.  Both axes bisect explicit edges: depth bins the grid's depth
    edges, lateral bins the edges x_min + i * width with the last one
    x_max."""

    @staticmethod
    def _bin(v, edges) -> int:
        v = float(v)
        if not (math.isfinite(v) and edges[0] <= v <= edges[-1]):
            return -1
        return min(bisect.bisect_right(edges, v) - 1, len(edges) - 2)

    def depth_bin(self, z, g) -> int:
        return self._bin(z, g.depth_edges.tolist())

    def lateral_bin(self, x, g) -> int:
        lo, hi = g.x_range
        return self._bin(x, [lo + i * g.lateral_width for i in range(g.n_x)] + [hi])

    def cell(self, x, z, g) -> int:
        i_z, i_x = self.depth_bin(z, g), self.lateral_bin(x, g)
        return -1 if i_z < 0 or i_x < 0 else i_z * g.n_x + i_x


@pytest.fixture(scope="session")
def cell_oracle() -> CellOracle:
    return CellOracle()

"""The package's inverse normal CDF against Cephes' ``ndtri`` as scipy compiles it.

scipy is a test dependency only; no module of the package imports it.
"""

import numpy as np
import pytest
from scipy.special import ndtri as cephes_ndtri

from equality import ulp_distance
from pidenet import jumpsim, normal
from pidenet.normal import ndtri

E2 = normal._EXP_M2


def neighbours(v: float) -> list[float]:
    return [float(np.nextafter(v, 0.0)), v, float(np.nextafter(v, 1.0))]


class TestAgainstCephes:
    @pytest.fixture(scope="class")
    def draws(self):
        u = jumpsim.keyed_uniforms(20, 1, np.arange(1 << 20), 0, 0)
        return u, ndtri(u), cephes_ndtri(u)

    def test_central_branch_is_byte_identical(self, draws):
        u, got, want = draws
        central = (u > E2) & (u <= 1.0 - E2)
        assert 0.72 < central.mean() < 0.74
        assert got[central].tobytes() == want[central].tobytes()

    def test_keyed_draws_are_within_8_ulp(self, draws):
        _, got, want = draws
        assert ulp_distance(got, want) <= 8

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_deep_tails_are_within_8_ulp(self, side):
        # log-uniform down to 2**-54, so both tail fits (below and above
        # e^-32) are taken; the upper side stops where 1 - y rounds to 1
        y = np.exp(-np.random.default_rng(5).uniform(2.0, 37.4 if side == "lower" else 36.0,
                                                     200_000))
        u = y if side == "lower" else 1.0 - y
        assert ulp_distance(ndtri(u), cephes_ndtri(u)) <= 8

    @pytest.mark.parametrize("u", [*neighbours(2.0**-54), *neighbours(np.exp(-32.0)),
                                   *neighbours(E2), *neighbours(1.0 - E2),
                                   float(np.nextafter(jumpsim._U_MAX, 0.0)), jumpsim._U_MAX])
    def test_branch_edges_are_exact(self, u):
        # _U_MAX's upper neighbour is 1.0, outside the domain
        assert ndtri(np.array([u])).tobytes() == cephes_ndtri(np.array([u])).tobytes()


def test_a_value_does_not_depend_on_its_position():
    # a node-major (steps, paths, d) stack, as ``_draw_noise`` draws it
    u = jumpsim.keyed_uniforms(8, 1, np.arange(40)[None, :, None], np.arange(50)[:, None, None],
                               np.arange(4)[None, None, :])
    whole = ndtri(u)
    assert whole.shape == u.shape and whole.flags.c_contiguous
    block = u[:, 3:10]  # a strided block of whole paths
    assert ndtri(block).tobytes() == whole[:, 3:10].tobytes()
    assert ndtri(block.copy()).tobytes() == whole[:, 3:10].tobytes()
    for index in [(0, 0, 0), (17, 5, 3), (49, 39, 1)]:
        assert ndtri(u[index]).tobytes() == whole[index].tobytes()


def test_input_is_left_unchanged():
    u = jumpsim.keyed_uniforms(1, 1, np.arange(1000), 0, 0)
    kept = u.copy()
    ndtri(u)
    assert u.tobytes() == kept.tobytes()

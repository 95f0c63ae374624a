"""SAM decomposition (paper Section 5.1, Figure 4b): the dimension
split the NTT mapping models, and the inter-dimension twiddles the
on-chip generator must produce."""

import pytest

from repro.field import goldilocks as gl
from repro.hw import DEFAULT_CONFIG
from repro.mapping import ntt_dims

from .reference_oracles import inter_dim_twiddles

HW = DEFAULT_CONFIG  # 2**5-point MDC pipeline tiles


class TestTwiddles:
    def test_inter_dim_twiddles_formula(self):
        tw = inter_dim_twiddles(6, 4, 8)
        w = gl.primitive_root_of_unity(6)
        for k1 in range(4):
            for j2 in range(8):
                assert int(tw[k1, j2]) == gl.pow_mod(w, k1 * j2)


class TestDecomposeSize:
    """Dimensions of at most ``2**tile_log2`` points each."""

    def test_even_split(self):
        assert ntt_dims(10, HW) == [5, 5]

    def test_remainder_dim(self):
        assert ntt_dims(9, HW) == [5, 4]
        assert ntt_dims(23, HW) == [5, 5, 5, 5, 3]

    def test_small(self):
        assert ntt_dims(3, HW) == [3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ntt_dims(10, HW, tile_log2=0)

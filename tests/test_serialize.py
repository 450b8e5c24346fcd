import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlabel.serialize import (canonical_dumps, derive_seed, rle_decode_bool,
                                rle_encode_bool, sha256_file)


class TestRle:
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bool(self, bits):
        mask = np.array(bits, dtype=bool).reshape(1, -1)
        back = rle_decode_bool(rle_encode_bool(mask), mask.shape)
        assert np.array_equal(back, mask)

    @pytest.mark.parametrize("shape", [(0,), (1, 1), (3, 0), (48, 64)])
    def test_round_trip_edge_shapes(self, shape):
        mask = np.random.default_rng(0).random(shape) < 0.3
        back = rle_decode_bool(rle_encode_bool(mask), shape)
        assert back.dtype == bool and back.shape == shape
        assert np.array_equal(back, mask)

    def test_constant_mask_is_one_run(self):
        assert rle_encode_bool(np.ones((4, 4), dtype=bool)) == [[1, 16]]


class TestCanonicalDumps:
    def test_key_order_independent(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_dumps({"a": [1, 2], "b": {"c": 3}})


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "scene") == derive_seed(3, "scene")

    def test_stage_and_index_separate_streams(self):
        seeds = {derive_seed(3, "scene"), derive_seed(3, "episode"),
                 derive_seed(3, "detector", 0), derive_seed(3, "detector", 1),
                 derive_seed(4, "scene")}
        assert len(seeds) == 5

    def test_in_numpy_seed_range(self):
        for i in range(100):
            assert 0 <= derive_seed(i, "x", i) < 2 ** 63


class TestSha256File(object):
    def test_known_digest(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("abc")
        assert sha256_file(p) == ("ba7816bf8f01cfea414140de5dae2223"
                                  "b00361a396177a9cb410ff61f20015ad")

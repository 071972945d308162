import numpy as np
import pytest

from sumsetvc.errors import ParameterError
from sumsetvc.sampling import SplitMix64, sample_distinct


def test_splitmix64_stream_is_pinned():
    gen = SplitMix64(0)
    assert gen.next_uint64() == 0xE220A8397B1DCDAF
    assert gen.next_uint64() == 0x6E789E6AA1B965F4
    assert sample_distinct(1 << 20, 3, SplitMix64(7)) == [76290, 903349, 930204]


def test_below_takes_every_bound_up_to_one_draw():
    gen = SplitMix64(1)
    assert gen.below(1) == 0
    assert 0 <= gen.below(1 << 64) < 1 << 64


@pytest.mark.parametrize("bound", [0, -1, (1 << 64) + 1, 1 << 3_000_000],
                         ids=["0", "-1", "2**64+1", "2**3000000"])
def test_below_rejects_bounds_outside_one_draw(bound):
    # 2**3000000 has far more digits than int -> str converts by default
    with pytest.raises(ParameterError, match=r"1\.\.2\*\*64"):
        SplitMix64(1).below(bound)
    with pytest.raises(ParameterError, match=r"1\.\.2\*\*64"):
        SplitMix64(1).below_many(bound, 3)


# at 2**63 + 1 about half the draws are rejected, so a batch resumes many times
@pytest.mark.parametrize("bound", [1, 2, 3, (1 << 32) + 15, (1 << 63) + 1, 1 << 64],
                         ids=["1", "2", "3", "2**32+15", "2**63+1", "2**64"])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_below_many_is_the_scalar_stream(bound, count):
    batch, scalar = SplitMix64(9), SplitMix64(9)
    drawn = batch.below_many(bound, count)
    assert drawn.dtype == np.uint64
    assert drawn.tolist() == [scalar.below(bound) for _ in range(count)]
    assert batch.next_uint64() == scalar.next_uint64()


def test_below_many_rejects_a_negative_count():
    with pytest.raises(ParameterError, match="count"):
        SplitMix64(1).below_many(2, -1)

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

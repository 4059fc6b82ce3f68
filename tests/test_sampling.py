"""The sampler's table draws against the arithmetic they replace."""

import pytest

from qchar2.fields import tower
from qchar2.sampling import Sampler

TOWERS = [tower(1, ("t",)), tower(2, ("t",)), tower(1, ("t1", "t2")), tower(1, ("t1", "t2", "t3"))]


class ArithmeticSampler(Sampler):
    """Builds each element at its draw, as the sampler did before its
    tables, asking the generator for the same values in the same order."""

    def tame_b(self):
        b = self.unit()
        tw = self.tower
        if tw.height and self.rng.random() < 0.5:
            level = self.rng.randrange(1, tw.height + 1)
            b = b * tw.gen(level)
        return b

    def tame_a(self):
        tw = self.tower
        a = self.rng.choice([tw.zero(), tw.one(), self.unit()])
        if tw.height and self.rng.random() < 0.6:
            level = self.rng.randrange(1, tw.height + 1)
            a = a + tw.gen(level) * self.unit()
        return a

    def nonzero(self):
        x = self.tame_b()
        while x.is_zero():
            x = self.tame_b()
        return x


def draws(sampler, rounds):
    """Each compared method once per round, in one fixed order."""
    out = []
    for _ in range(rounds):
        f = sampler.nonsingular_form(4)
        out += [sampler.tame_a(), sampler.tame_b(), sampler.nonzero(), f,
                sampler.pfister(2), sampler.symbol_sum(2, 2), sampler.rechain(f, 3)]
    return out


@pytest.mark.parametrize("tw", TOWERS, ids=lambda tw: tw.descriptor())
@pytest.mark.parametrize("seed", range(5))
def test_table_draws_equal_arithmetic_draws(tw, seed):
    tabled, built = Sampler(tw, seed), ArithmeticSampler(tw, seed)
    got, want = draws(tabled, 200), draws(built, 200)
    assert [str(x) for x in got] == [str(x) for x in want]
    assert all(x == y for x, y in zip(got[::7], want[::7]))
    assert tabled.rng.getstate() == built.rng.getstate()

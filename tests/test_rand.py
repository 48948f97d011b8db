import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from convlab.rand import substreams

# draws of every width: 32-bit ones leave half a 64-bit word cached (has_uint32),
# 64-bit ones leave part of Philox's four-word buffer unread
DRAWS = {
    "int31": lambda rng: rng.integers(2**31),
    "uint32": lambda rng: rng.integers(2**32, dtype=np.uint32),
    "int63": lambda rng: rng.integers(2**63),
    "normal": lambda rng: rng.standard_normal(3),
    "uniform": lambda rng: rng.random(),
    "exponential": lambda rng: rng.exponential(2.0, 5),
}


def drawn(rng, names):
    return [np.asarray(DRAWS[name](rng)).tolist() for name in names]


@example(streams=[(0, ["int31"]), (2**64 - 1, ["uint32", "normal"]), (0, ["int63"])])
@example(streams=[(5, ["uint32"] * 3), (2**64 - 1, ["uniform"] * 5)])
@given(streams=st.lists(st.tuples(st.integers(0, 2**64 - 1),
                                  st.lists(st.sampled_from(sorted(DRAWS)), max_size=6)),
                        min_size=1, max_size=8))
def test_substreams_draw_what_a_fresh_philox_draws(streams):
    rngs = substreams(key for key, _ in streams)
    for key, names in streams:
        fresh = np.random.Generator(np.random.Philox(key=key))
        assert drawn(next(rngs), names) == drawn(fresh, names)


def test_substreams_read_keys_lazily():
    seen = []
    rngs = substreams(seen.append(key) or key for key in (1, 2, 3))
    next(rngs)
    assert seen == [1]

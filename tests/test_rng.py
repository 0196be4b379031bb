import numpy as np
import pytest

from funcperm.rng import seed_entropy


def _state(seed, *key):
    return tuple(np.random.SeedSequence(seed_entropy(seed, *key)).generate_state(4))


@pytest.mark.parametrize("seed", [0, 7, (3, 11)])
def test_stage_streams_do_not_alias(seed):
    # SeedSequence pads entropy with zeros, so key paths that differ only by
    # appended zeros would share one stream; every stage must get its own
    for design, rep in [(1, 0), (1, 1), (10, 3)]:
        # run_replication: simulation, measure, plans, decisions
        states = {_state(seed, design, rep, stage) for stage in range(4)}
        assert len(states) == 4
    # the test command: measure (seed, 1), plans (seed, 2), decisions (seed, 3, 1)
    states = {_state(seed, 1), _state(seed, 2), _state(seed, 3, 1)}
    assert len(states) == 3
    # acceptance criteria 1 and 3: measure (seed, reps, 1); rep r's data,
    # plans and decisions (seed, r, 0), (seed, r, 2), (seed, r, 3)
    reps = 2000
    rep_states = {_state(seed, rep, stage) for rep in range(reps) for stage in (0, 2, 3)}
    assert len(rep_states) == 3 * reps
    assert _state(seed, reps, 1) not in rep_states


@pytest.mark.parametrize(
    "seed, key",
    [((3, 1.5), ()), ((3, "2"), ()), (3, (1.5,)), (3, ("2",)), (True, (False,)), ((3, True), ())],
)
def test_seed_and_key_components_must_be_integers(seed, key):
    # truncating 1.5 to 1, parsing "2" as 2 or reading True as 1 would
    # silently alias the stream another integer key names
    with pytest.raises(TypeError):
        seed_entropy(seed, *key)


def test_numpy_integer_key_components_are_plain_integers():
    entropy = seed_entropy((3, np.int64(1)), np.uint8(2))
    assert entropy == (3, 1, 2)
    assert all(type(p) is int for p in entropy)
    assert seed_entropy(np.int64(3), 1) == (3, 1)

"""Hypothesis strategies for games shared by several test modules."""

import random

from hypothesis import strategies as st

from wvg import ExperimentConfig, Game, generate_game


@st.composite
def edge_games(draw):
    """Games of at most 10 players that reach the scans' edge cases.

    Weights come from a pool of at most three values plus optional weight-1
    players, so repeated weights are common; the quota is 1, the largest
    weight (so some weight meets it), the total weight, or anywhere between.
    """
    pool = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    ones = draw(st.integers(0, 10 - len(weights)))
    weights = tuple(weights) + (1,) * ones
    total = sum(weights)
    quota = draw(
        st.sampled_from([1, max(weights), total]) | st.integers(1, total)
    )
    return Game(quota, weights)


@st.composite
def mean_200_games(draw, max_players: int = 10):
    """Games of 2 .. ``max_players`` players drawn by the study's own
    generator at mean weight 200 (sigma 5, 25 or 50, uniform quota)."""
    sigma = draw(st.sampled_from([5.0, 25.0, 50.0]))
    config = ExperimentConfig(
        weight_mean=200.0, weight_sigma_set=(sigma,), player_range=(2, max_players)
    )
    return generate_game(config, random.Random(draw(st.integers(0, 2**32 - 1))), sigma)

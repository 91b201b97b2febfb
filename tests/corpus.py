"""The seeded desk-jammer game corpus that gates the game solver.

One definition serves every count and block length: per game,
beta = exp(U(ln 0.1, ln 20)) and then sigma_w^2 = U(0.9, 1.1), both drawn
from ``numpy.random.default_rng(seed)``, on ``desk_scenario(True)``.
"""

import math
from dataclasses import replace

import numpy as np

from covertgame.model import desk_scenario


def desk_games(count: int, seed: int, n: int):
    """The first ``count`` scenarios of the corpus drawn with ``seed``, at block length n."""
    rng = np.random.default_rng(seed)
    base = replace(desk_scenario(True), blocklength_n=n)
    for _ in range(count):
        beta = math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
        yield replace(base, beta=beta, sigma_w_sq_mw=rng.uniform(0.9, 1.1))

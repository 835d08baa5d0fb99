"""Golden run: the first 100 episodes of cartpole-quantum, seed 0, replayed
against the committed reference run in `cp_s0/`.

`total_reward` and `discounted_return` must match exactly. `beta` and
`grad_norm` may differ by rounding only: batches whose advantages are zero
give a gradient norm of about 1e-14 that is pure rounding noise.
"""
import csv
from pathlib import Path

import numpy as np

from qpolgrad import config as cfg
from qpolgrad import reinforce

REFERENCE = Path(__file__).resolve().parent.parent / "cp_s0" / "metrics.csv"
EPISODES = 100


def test_cartpole_quantum_seed0_replays_reference_run():
    with open(REFERENCE, newline="") as fh:
        reference = list(csv.DictReader(fh))[:EPISODES]
    run = cfg.preset_config("cartpole-quantum", {"seed": 0, "episodes": EPISODES})
    records = list(reinforce.train(run))
    assert [r.episode for r in records] == [int(row["episode"]) for row in reference]
    for column in ("total_reward", "discounted_return"):
        np.testing.assert_array_equal([getattr(r, column) for r in records],
                                      [float(row[column]) for row in reference])
    for column in ("beta", "grad_norm"):
        np.testing.assert_allclose([getattr(r, column) for r in records],
                                   [float(row[column]) for row in reference],
                                   rtol=1e-9, atol=1e-9)

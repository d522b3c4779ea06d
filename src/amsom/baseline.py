"""Classic batch SOM on a fixed lattice, used as the comparison baseline.

Same assignment rule, same batch weight update, same sigma schedule and the
same termination test as the adaptive trainer, but the lattice never changes:
no position updates, no edge aging, no neuron addition or removal.
"""

from __future__ import annotations

from .core import Dataset, MapState, assign_all
from .engine import TrainConfig, _pairwise_sq, _run_epochs, _SigmaSchedule, batch_weight_update


def train_batch_som(data: Dataset, map_state: MapState, config: TrainConfig, progress=None):
    """Train weights over a fixed lattice; returns ``(map_state, reports)``.

    Winners are found against the epoch-start weights, then every weight is
    replaced by its kernel-weighted average of winner means. R, E and A are
    left untouched, so the lattice distances are computed once per run; win
    counts accumulate for reporting. The sigma schedule and the epoch loop
    are shared with the adaptive trainer; since this lattice never deforms,
    its cell width stays at one cell, so the schedule's late retargeting
    aims at sigma_final itself.
    """
    schedule = _SigmaSchedule(config, map_state)
    sq_dist = _pairwise_sq(map_state.positions)
    asg = assign_all(data, map_state)

    def step(epoch, live):
        nonlocal asg
        sigma, _ = schedule.step(epoch, map_state)
        map_state.win_count += asg.wins
        map_state.weights = batch_weight_update(map_state, asg, data, sigma, sq_dist=sq_dist)
        asg = assign_all(data, map_state)
        return [(asg.dist, [])]

    (reports,) = _run_epochs([(config.max_epochs, config.eps1, progress)], step)
    return map_state, reports

import numpy as np

from fltop import compression, nn
from fltop.config import calibrate_clip
from fltop.data import to_targets
from fltop.federation import FederationConfig

from oracles import update_norms


def calibration_case(separable_task, scheme):
    """A small run config for `scheme`, its public batch and targets, and w0."""
    _, _, public = separable_task
    arch = nn.mlp_arch(20, [8], 2, "cross_entropy")
    fed = FederationConfig(arch, scheme, n_clients=10, sampling_fraction=0.2,
                           rounds=1, learning_rate=0.3, ratio=0.05)
    return fed, public, to_targets(public[1], arch), nn.init_model(arch, 0)


class TestCalibrate:
    def test_fixed_set_deterministic(self, separable_task):
        # A fixed-set scheme: the norm of one local update on its Top-K set.
        fed, public, targets, w0 = calibration_case(separable_task, "fl-top")
        px = public[0]
        iset = compression.select_topk(w0, fed.arch, px, targets, fed.t_init,
                                       fed.k(len(w0)), fed.learning_rate)
        expected, = update_norms(px, targets, w0, fed.arch, [iset],
                                 fed.local_steps, fed.learning_rate,
                                 [104, fed.seeds.sampling])
        assert calibrate_clip(fed, public) == expected
        assert calibrate_clip(fed, public) == expected

    def test_median_within_sample_range(self, separable_task):
        # A per-round scheme: the median over 100 freshly drawn sets.
        fed, public, targets, w0 = calibration_case(separable_task, "fl-basic")
        n = len(w0)
        sets = [compression.select_random(n, fed.k(n), [105, fed.seeds.sampling, i])
                for i in range(100)]
        norms = update_norms(public[0], targets, w0, fed.arch, sets,
                             fed.local_steps, fed.learning_rate,
                             [104, fed.seeds.sampling])
        s = calibrate_clip(fed, public)
        assert min(norms) < s < max(norms)
        assert s == np.median(norms)

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

from sgphase.params import (SpinWeights, baseline_config,
                            short_protocol_config)

settings.register_profile(
    "default", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture(scope="session")
def baseline():
    return baseline_config()


@pytest.fixture(scope="session")
def baseline_codata():
    return baseline_config("codata")


@pytest.fixture(scope="session")
def short_protocol():
    return short_protocol_config()


@pytest.fixture(scope="session")
def out_of_domain(baseline):
    """(field, config) pairs whose input validate must reject under that
    field. A protocol is set by its pulse length T1 and its hold time and
    the weights by |beta_+|^2; the other times and |beta_-|^2 are derived,
    so these inputs are all that can be out of range."""
    p = baseline.protocol
    protocols = ([("protocol.T1", replace(p, T1=x))
                  for x in (0.0, -0.25, math.inf, math.nan)]
                 + [("protocol.hold", replace(p, hold=x))
                    for x in (-1e-3, math.inf, math.nan)]
                 # valid inputs whose derived times collapse or overflow
                 + [("protocol", replace(p, T1=x)) for x in (1e-17, 1e308)])
    return ([(f, replace(baseline, protocol=q)) for f, q in protocols]
            + [("weights.beta_plus_sq",
                replace(baseline, weights=SpinWeights.from_plus(x)))
               for x in (0.0, 1.0, -0.1, 1.5, math.nan)])

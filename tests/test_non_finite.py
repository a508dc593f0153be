"""Non-finite input to the exact layer is a DomainError, as in evolve and scalar_ode.integrate."""

import math

import numpy as np
import pytest

from eternal_kit import elliptic, scalar_ode, spectrum, waves
from eternal_kit.errors import DomainError

#: each entry point with its one real input set to the drawn value
CALLS = {
    "scalar_ode.PolyField": lambda x: scalar_ode.PolyField([x, 1.0]),
    "spectrum.eigen": lambda x: spectrum.eigen(elliptic.CosineSeries([x])),
    "spectrum.homogeneous_spectrum": spectrum.homogeneous_spectrum,
    "spectrum.morse_index_homogeneous": spectrum.morse_index_homogeneous,
    "spectrum.perturbation_mu": lambda x: spectrum.perturbation_mu(1, 0, x),
    "waves.resonance_order": waves.resonance_order,
    "waves.soliton": waves.soliton,
    "waves.soliton[array]": lambda x: waves.soliton(np.array([0.0, x])),
    "waves.wave_params": waves.wave_params,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_input_is_a_domain_error(name, value):
    # not a NaN result, a scipy or math ValueError, numpy's LinAlgError, or
    # (morse_index_homogeneous at inf) a loop that never ends
    with pytest.raises(DomainError):
        CALLS[name](value)

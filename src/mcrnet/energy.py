"""Lifecycle energy per unit area and its delay-gated service variant.

Each tier contributes density * (operation power * lifetime + embodied
energy); edge data centers additionally pay a storage energy per cached
content.  Service effective energy multiplies the areal system energy by
a hard delay-QoS indicator, so an infeasible operating point scores zero
and must be excluded from minimisation rather than preferred.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .scenario import (SECONDS_PER_YEAR, ScenarioError, config_keys,
                       load_config)


@dataclass(frozen=True)
class EnergyModel:
    """Power-model coefficients, lifetimes (s) and embodied energies (J)."""

    a_m: float = 21.45
    b_m: float = 354.0
    a_s: float = 7.84
    b_s: float = 71.0
    a_e: float = 7.84
    b_e: float = 71.0
    t_life_m: float = 10 * SECONDS_PER_YEAR
    t_life_s: float = 5 * SECONDS_PER_YEAR
    t_life_e: float = 5 * SECONDS_PER_YEAR
    e_em_m: float = 0.0
    e_em_s: float = 0.0
    e_em_e: float = 0.0
    e_storage: float = 8e6  # J per stored content
    assumed_defaults: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            if f.name == "assumed_defaults":
                continue
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ScenarioError(f"constraint violated: {f.name} finite")
            if value < 0:
                raise ScenarioError(f"constraint violated: {f.name} >= 0")
        for name in ("t_life_m", "t_life_s", "t_life_e"):
            if getattr(self, name) <= 0:
                raise ScenarioError(f"constraint violated: {name} > 0")


ASSUMED_ENERGY_FIELDS = frozenset(["e_em_m", "e_em_s", "e_em_e"])
# every key an energy config document or override may use
ENERGY_KEYS = config_keys(EnergyModel, {
    f"{f}_years": (f, lambda v: v * SECONDS_PER_YEAR)
    for f in ("t_life_m", "t_life_s", "t_life_e")})


def load_energy_model(text=None, overrides=None):
    """Build an energy model from flat key/value text plus overrides."""
    return load_config(EnergyModel, ENERGY_KEYS, ASSUMED_ENERGY_FIELDS,
                       text, overrides)


def qos_indicator(d_total, d_max):
    """1 if the delay meets the budget (inclusive), else 0."""
    if d_total < 0 or d_max < 0:
        raise ValueError("delays must be >= 0")
    return 1 if d_total <= d_max else 0


@dataclass(frozen=True)
class SystemEnergy:
    """Areal energy (J/m^2) split by tier; ``total`` is their sum."""

    mbs: float
    sbs: float
    edc: float
    storage: float
    total: float


def system_energy(s, em, psi, lambda_e=None):
    """Areal lifecycle energy with ``psi`` contents cached per edge node.

    ``lambda_e`` overrides the scenario's edge density (the optimiser
    evaluates candidate densities without rebuilding scenarios).  ``psi``
    and ``lambda_e`` may be equal-length arrays, one operating point per
    entry; the fields that depend on them are then arrays too, each entry
    bitwise equal to the scalar call at that point.
    """
    # np.all on a Python bool costs more than the formula; a reduce over
    # the flattened verdicts gives the same one for scalars and arrays
    if not np.logical_and.reduce(np.ravel((0 <= psi) & (psi <= s.k_total))):
        raise ValueError(f"psi {psi} outside [0, {s.k_total}]")
    lam_e = s.lambda_e if lambda_e is None else lambda_e
    mbs = s.lambda_m * ((em.a_m * s.p_m + em.b_m) * em.t_life_m + em.e_em_m)
    sbs = s.lambda_s * ((em.a_s * s.p_s + em.b_s) * em.t_life_s + em.e_em_s)
    edc = lam_e * ((em.a_e * s.p_e + em.b_e) * em.t_life_e + em.e_em_e)
    storage = lam_e * psi * em.e_storage
    return SystemEnergy(mbs=mbs, sbs=sbs, edc=edc, storage=storage,
                        total=mbs + sbs + edc + storage)


def service_effective_energy(e_sys, qos):
    """Areal energy gated by the QoS indicator."""
    if qos not in (0, 1):
        raise ValueError(f"qos must be 0 or 1, got {qos!r}")
    return e_sys * qos


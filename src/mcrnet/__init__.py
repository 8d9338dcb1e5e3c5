"""Analytical and Monte-Carlo models of cooperative multi-path content
delivery in edge-cached 5G small-cell networks.

The library covers content popularity and edge caching, the per-stage
latency stack, the cooperative multi-path backhaul delay with its
closed-form bounds, areal lifecycle energy, a two-step cache-size /
edge-density optimiser over the operating points that meet the delay
budget, and stochastic oracles validating every closed form.
"""

from .energy import (EnergyModel, SystemEnergy, load_energy_model,
                     system_energy)
from .latency import (DelayBreakdown, access_delay, access_success_prob,
                      deli_delay, deli_success_prob, fiber_delay,
                      total_latency, uplink_request_delay,
                      uplink_success_prob)
from .montecarlo import (McEstimate, estimate_access_success,
                         estimate_deli_success, estimate_shadowing_success,
                         estimate_uplink_success, mean_estimate,
                         nearest_distances, proportion_z, simulate_backhaul)
from .multipath import (MultipathPlan, build_plan, continuous_backhaul_coeff,
                        continuous_backhaul_delay, continuous_backhaul_density,
                        delay_bounds, max_cooperative_paths,
                        mean_kth_edc_distance, mmwave_link_margin,
                        mmwave_success_prob,
                        multipath_backhaul_delay, relay_selection_prob)
from .optimizer import (FeasiblePair, NoFeasiblePairError,
                        OptimizationOutcome, critical_edc_density,
                        optimize_cache_density, reduced_delay_budget)
from .popularity import (CacheState, PopularityModel, cache_step,
                         hit_probability, zipf)
from .scenario import (NetworkScenario, ScenarioError, load_scenario,
                       scenario_hash)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

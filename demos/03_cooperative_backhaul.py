"""Cooperative multi-path backhaul against the single-path baseline.

Shows the integer-hop plan (distances, shares, hops and the per-slot
success of the edge node's hop and of a relay hop), the closed-form
delay with its strict envelopes, and the delay trends that motivate
cooperation: more sources and denser edge deployments shorten the
transfer, bigger buffers and denser small cells lengthen it.
"""

from mcrnet.multipath import (EXACT_CEIL, build_plan, delay_bounds,
                              multipath_backhaul_delay)
from mcrnet.scenario import load_scenario

s = load_scenario()

print("=== integer-hop transmission plan at defaults (B = 4) ===")
plan = build_plan(s)
print(f"per-slot success: edge node's hop p_first = {plan.p_first:.4f}, "
      f"relay hop p_relay = {plan.p_relay:.4f}")
for p in range(plan.b):
    print(f"  source {p + 1}: mean distance {plan.r[p]:6.1f} m, "
          f"share {plan.shares[p]:.3f}, hops {plan.hops[p]:.0f} "
          f"(continuous {plan.r[p] / s.r_mmw:.2f})")
exact = multipath_backhaul_delay(s, EXACT_CEIL)
print(f"integer-hop delay {exact * 1e3:.3f} ms (the packet simulator's "
      f"reference)")

print()
print("=== closed form vs envelopes ===")
lower, upper = delay_bounds(s)
d = multipath_backhaul_delay(s)
print(f"  lower {lower * 1e3:7.3f} ms < delay {d * 1e3:7.3f} ms "
      f"< upper {upper * 1e3:7.3f} ms")

print()
print("=== cooperation gain vs edge density ===")
print(f"{'per km^2':>9} {'multipath':>11} {'single':>9} {'gain':>8}")
for lam_km2 in (6, 10, 15, 25, 40):
    lam = lam_km2 / 1e6
    multi = multipath_backhaul_delay(s, lambda_e=lam)
    single = multipath_backhaul_delay(s, b=1, lambda_e=lam)
    print(f"{lam_km2:9.0f} {multi * 1e3:9.2f} ms {single * 1e3:7.2f} ms "
          f"{(single - multi) * 1e3:6.2f} ms")

print()
print("=== delay vs path count ===")
for b in (1, 2, 4, 6):
    print(f"  B = {b}: {multipath_backhaul_delay(s, b=b) * 1e3:7.3f} ms")

print()
print("=== buffer size drives the transfer window ===")
for mb in (0.5, 1.0, 2.0, 4.0):
    si = s.with_params(buffer_omega=mb * 2.0 ** 20)
    print(f"  buffer {mb:3.1f} MB: {multipath_backhaul_delay(si) * 1e3:7.3f} ms")

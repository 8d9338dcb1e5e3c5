"""Deployment scenario: every model parameter in strict SI units.

Only this module knows about km^-2, dBm, dB, MHz, MB or years; everything
downstream sees metres, seconds, Watts, Hz and linear ratios.  Config
documents are flat ``key = value`` text where a key is either a field name
(SI value) or a field name with a unit suffix, e.g. ``lambda_e_per_km2``
or ``p_s_dbm``.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass, fields, replace

SECONDS_PER_YEAR = 365 * 24 * 3600
MEGABYTE = 2 ** 20  # buffer sizes quoted in MB mean 2^20 bytes


class ScenarioError(ValueError):
    """A config document failed to parse or violated a model constraint."""


def dbm_to_watt(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watt_to_dbm(watt):
    return 10.0 * math.log10(watt) + 30.0


def db_to_linear(db):
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio):
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class NetworkScenario:
    """Immutable parameter set for one small-cell deployment.

    Densities are per m^2, powers in Watts, times in seconds, distances in
    metres; ``theta2`` is a linear SINR ratio and ``sigma_db`` is the only
    field carrying a dB quantity (shadow-fading spread is defined in dB).
    """

    # deployment densities (per m^2)
    lambda_m: float = 5e-6
    lambda_s: float = 5e-5
    lambda_u: float = 2e-4
    lambda_e: float = 1e-5
    # transmit powers (W)
    p_m: float = dbm_to_watt(43.0)
    p_s: float = dbm_to_watt(30.0)
    p_e: float = dbm_to_watt(30.0)
    p_u: float = dbm_to_watt(23.0)
    # antenna counts
    nt_u: int = 2
    nr_m: int = 2
    nt_m: int = 2
    nr_e: int = 2
    nt_s: int = 2
    nr_u: int = 2
    # reception thresholds: theta1/3/4 received power (W), theta2 SINR (ratio)
    theta1: float = dbm_to_watt(-90.0)
    theta2: float = 1.0
    theta3: float = dbm_to_watt(-90.0)
    theta4: float = dbm_to_watt(-90.0)
    # path-loss exponents
    alpha1: float = 3.5
    alpha2: float = 2.0
    # noise and mmWave radio
    n0: float = dbm_to_watt(-174.0)  # W/Hz
    w_mmw: float = 2e8  # Hz
    tau_mmw: float = 5e-6  # s
    r_mmw: float = 100.0  # m, max mmWave hop distance
    sigma_db: float = 5.0  # shadow-fading std dev, dB
    # packetisation
    packet_l: float = 1024.0  # bytes
    buffer_omega: float = float(MEGABYTE)  # bytes
    # fiber segment to the remote data center
    l_fiber: float = 1e6  # m
    v_fiber: float = 2e8  # m/s
    # request queue at the macro cell
    mu: float = 1.05e4  # 1/s
    chi: float = 5e7  # m^2/s
    # cooperative paths
    b_paths: int = 4
    r_max: float = 500.0  # m
    relay_coeff: float = 1.28  # SBS-per-EDC coverage factor
    # single-attempt transmission times (s)
    t_ul_req: float = 8.192e-5
    t_dl_deli: float = 8.192e-5
    t_dl_as: float = 8.192e-5
    # interactive-service delay budget (s)
    d_max: float = 0.02
    # content library
    beta: float = 0.8
    k_total: int = 500
    # provenance: fields left at defaults that have no published value
    assumed_defaults: tuple = ()

    def __post_init__(self):
        _validate(self)

    def with_params(self, **si_values):
        """Copy with SI-valued fields replaced; constraints re-checked."""
        return replace(self, **si_values)


_INT_FIELDS = frozenset(
    ["nt_u", "nr_m", "nt_m", "nr_e", "nt_s", "nr_u", "b_paths", "k_total"])
_FLOAT_FIELDS = tuple(
    f.name for f in fields(NetworkScenario)
    if f.name not in _INT_FIELDS and f.name != "assumed_defaults")

# Defaults with no citable source; flagged in output metadata when used.
ASSUMED_DEFAULT_FIELDS = frozenset([
    "lambda_e", "p_m",
    "nt_u", "nr_m", "nt_m", "nr_e", "nt_s", "nr_u",
    "theta1", "theta2", "theta3", "theta4",
    "alpha1", "alpha2",
    "b_paths",
    "t_ul_req", "t_dl_deli", "t_dl_as",
    "d_max",
])


def _check(ok, message):
    if not ok:
        raise ScenarioError(f"constraint violated: {message}")


def _validate(s):
    # an infinite or NaN value overflows or divides by zero downstream
    for name in _FLOAT_FIELDS:
        _check(math.isfinite(getattr(s, name)), f"{name} finite")
    for name in ("lambda_m", "lambda_s", "lambda_u", "lambda_e"):
        _check(getattr(s, name) > 0, f"{name} > 0")
    _check(s.lambda_m < s.lambda_e < s.lambda_s,
           f"lambda_m < lambda_e < lambda_s "
           f"(got {s.lambda_m:g}, {s.lambda_e:g}, {s.lambda_s:g} per m^2)")
    _check(s.p_m > s.p_s > s.p_u,
           f"p_m > p_s > p_u (got {s.p_m:g}, {s.p_s:g}, {s.p_u:g} W)")
    for name in ("p_m", "p_s", "p_e", "p_u", "theta1", "theta2", "theta3",
                 "theta4", "n0", "w_mmw", "tau_mmw", "r_mmw", "sigma_db",
                 "packet_l", "buffer_omega", "v_fiber", "mu", "chi", "r_max",
                 "relay_coeff", "t_ul_req", "t_dl_deli", "t_dl_as", "d_max"):
        _check(getattr(s, name) > 0, f"{name} > 0")
    _check(s.l_fiber >= 0, "l_fiber >= 0")
    _check(s.mu > s.chi * s.lambda_u,
           f"mu > chi * lambda_u (queue stability; arrival rate "
           f"{s.chi * s.lambda_u:g} 1/s vs service rate {s.mu:g} 1/s)")
    for name in _INT_FIELDS:
        value = getattr(s, name)
        _check(isinstance(value, int) and value >= 1, f"{name} integer >= 1")
    # r_max * r_max overflows to inf where r_max ** 2 would raise
    disc = s.lambda_e * math.pi * s.r_max * s.r_max
    _check(math.isfinite(disc),
           f"lambda_e * pi * r_max^2 finite (got r_max = {s.r_max:g} m)")
    _check(s.b_paths <= disc, f"b_paths <= lambda_e * pi * r_max^2 "
           f"(got {s.b_paths} > {disc:g})")
    _check(s.alpha1 > 2, "alpha1 > 2")
    # free-space alpha2 == 2 is the line-of-sight default for the access hop
    _check(s.alpha2 >= 2, "alpha2 >= 2")
    _check(s.beta >= 0, "beta >= 0")


def _suffix_table():
    table = {}
    # downscalings divide so the SI value rounds once, not twice
    for f in ("lambda_m", "lambda_s", "lambda_u", "lambda_e"):
        table[f + "_per_km2"] = (f, lambda v: v / 1e6)
    for f in ("p_m", "p_s", "p_e", "p_u", "theta1", "theta3", "theta4"):
        table[f + "_dbm"] = (f, dbm_to_watt)
    table["theta2_db"] = ("theta2", db_to_linear)
    table["n0_dbm_per_hz"] = ("n0", dbm_to_watt)
    table["w_mmw_mhz"] = ("w_mmw", lambda v: v * 1e6)
    table["tau_mmw_us"] = ("tau_mmw", lambda v: v / 1e6)
    table["buffer_omega_mb"] = ("buffer_omega", lambda v: v * MEGABYTE)
    table["l_fiber_km"] = ("l_fiber", lambda v: v * 1e3)
    for f in ("t_ul_req", "t_dl_deli", "t_dl_as", "d_max"):
        table[f + "_ms"] = (f, lambda v: v / 1e3)
        table[f + "_us"] = (f, lambda v: v / 1e6)
    return table


_SUFFIXED = _suffix_table()
_FIELD_NAMES = frozenset(
    f.name for f in fields(NetworkScenario) if f.name != "assumed_defaults")


def normalize_key(key, raw_value):
    """Map a config key (possibly unit-suffixed) to ``(field, si_value)``.

    Returns ``None`` for unknown keys after emitting a warning.
    """
    try:
        value = float(raw_value)
    except (TypeError, ValueError):
        raise ScenarioError(f"value for {key!r} is not numeric: {raw_value!r}")
    if key in _SUFFIXED:
        field_name, conv = _SUFFIXED[key]
        return field_name, conv(value)
    if key in _FIELD_NAMES:
        if key in _INT_FIELDS:
            if value != int(value):
                raise ScenarioError(f"{key} must be an integer, got {raw_value!r}")
            return key, int(value)
        return key, value
    warnings.warn(f"unknown config key {key!r} ignored", stacklevel=3)
    return None


def parse_config_text(text, mapper=normalize_key):
    """Parse flat ``key = value`` text into ``{field: SI value}``.

    Blank lines and ``#`` comments are skipped; ``key: value`` is accepted
    too.  ``mapper(key, raw_value)`` gives ``(field, SI value)``, or None
    for an unknown key after warning; the energy model passes its own.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        mapped = mapper(key.strip(), value.strip())
        if mapped is not None:
            out[mapped[0]] = mapped[1]
    return out


def load_scenario(text=None, overrides=None):
    """Build a validated scenario from config text plus key overrides.

    Parameters
    ----------
    text : str, optional
        Flat key/value config document; ``None`` or empty means defaults.
    overrides : dict, optional
        ``{config_key: value}`` applied after the document; keys may use
        unit suffixes exactly like document keys.

    Returns
    -------
    NetworkScenario
        With ``assumed_defaults`` listing fields left at defaults that
        have no published source.
    """
    si = parse_config_text(text) if text else {}
    for key, value in (overrides or {}).items():
        mapped = normalize_key(key, value)
        if mapped is not None:
            si[mapped[0]] = mapped[1]
    flagged = tuple(sorted(ASSUMED_DEFAULT_FIELDS - set(si)))
    return NetworkScenario(assumed_defaults=flagged, **si)


def load_scenario_file(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read(), overrides)


def scenario_to_config(s):
    """SI key/value mapping; feeding it back reproduces ``s`` exactly."""
    return {name: getattr(s, name) for name in sorted(_FIELD_NAMES)}


def scenario_hash(s):
    """Short content hash over the SI parameter values."""
    payload = ",".join(
        f"{name}={getattr(s, name):.17g}" for name in sorted(_FIELD_NAMES))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]

"""Deployment scenario: every model parameter in strict SI units.

Only this module knows about km^-2, dBm, dB, MHz, MB or years; everything
downstream sees metres, seconds, Watts, Hz and linear ratios.  Config
documents are flat ``key = value`` text where a key is either a field name
(SI value) or a field name with a unit suffix, e.g. ``lambda_e_per_km2``
or ``p_s_dbm``.
"""

import functools
import hashlib
import math
import operator
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


_INT_FIELDS = tuple(
    f.name for f in fields(NetworkScenario) if f.type is int)
_FLOAT_FIELDS = tuple(
    f.name for f in fields(NetworkScenario) if f.type is float)
_FIELD_NAMES = sorted(_INT_FIELDS + _FLOAT_FIELDS)

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


# upper bounds on the inputs that size the models' arrays and loops
MAX_GAIN_ORDER = 2 ** 14
MAX_K_TOTAL = 10 ** 6
_GAIN_ORDERS = (("uplink", "nt_u", "nr_m"), ("delivery", "nt_m", "nr_e"),
                ("access", "nt_s", "nr_u"))


_float_values = operator.attrgetter(*_FLOAT_FIELDS)
_int_values = operator.attrgetter(*_INT_FIELDS)
_DENSITIES = ("lambda_m", "lambda_s", "lambda_u", "lambda_e")
_densities = operator.attrgetter(*_DENSITIES)
_POSITIVE_FIELDS = (
    "p_m", "p_s", "p_e", "p_u", "theta1", "theta2", "theta3", "theta4", "n0",
    "w_mmw", "tau_mmw", "r_mmw", "sigma_db", "packet_l", "buffer_omega",
    "v_fiber", "mu", "chi", "r_max", "relay_coeff", "t_ul_req", "t_dl_deli",
    "t_dl_as", "d_max")
_positive_values = operator.attrgetter(*_POSITIVE_FIELDS)
_is_positive = functools.partial(operator.lt, 0.0)


def _is_count(value):
    return isinstance(value, int) and value >= 1


def _fail(message, *args):
    raise ScenarioError(f"constraint violated: {message.format(*args)}")


def _first(names, values, holds):
    # the first of names whose value fails holds
    return next(n for n, v in zip(names, values) if not holds(v))


def _validate(s):
    # each group of like constraints is tested in one pass over its
    # fields, and a message is formatted only for the first constraint
    # that fails, in the order below: a sweep validates a scenario per row
    floats = _float_values(s)
    # an infinite or NaN value overflows or divides by zero downstream
    if not all(map(math.isfinite, floats)):
        _fail("{} finite", _first(_FLOAT_FIELDS, floats, math.isfinite))
    densities = _densities(s)
    if not all(map(_is_positive, densities)):
        _fail("{} > 0", _first(_DENSITIES, densities, _is_positive))
    if not s.lambda_m < s.lambda_e < s.lambda_s:
        _fail("lambda_m < lambda_e < lambda_s (got {:g}, {:g}, {:g} per m^2)",
              s.lambda_m, s.lambda_e, s.lambda_s)
    if not s.p_m > s.p_s > s.p_u:
        _fail("p_m > p_s > p_u (got {:g}, {:g}, {:g} W)", s.p_m, s.p_s, s.p_u)
    positive = _positive_values(s)
    if not all(map(_is_positive, positive)):
        _fail("{} > 0", _first(_POSITIVE_FIELDS, positive, _is_positive))
    # the largest relay factor any density above lambda_m can reach
    if not math.isfinite(s.relay_coeff * s.lambda_s / s.lambda_m):
        _fail("relay_coeff * lambda_s / lambda_m finite "
              "(got relay_coeff = {:g})", s.relay_coeff)
    if not s.l_fiber >= 0:
        _fail("l_fiber >= 0")
    if not s.mu > s.chi * s.lambda_u:
        _fail("mu > chi * lambda_u (queue stability; arrival rate {:g} 1/s "
              "vs service rate {:g} 1/s)", s.chi * s.lambda_u, s.mu)
    counts = _int_values(s)
    if not all(map(_is_count, counts)):
        _fail("{} integer >= 1", _first(_INT_FIELDS, counts, _is_count))
    for stage, tx, rx in _GAIN_ORDERS:
        order = getattr(s, tx) * getattr(s, rx)
        if order > MAX_GAIN_ORDER:
            _fail("{} * {} <= {} (the {} aggregate gain order; every "
                  "stage shares the bound of the delivery series, whose "
                  "cost is quadratic in it; got {:g})",
                  tx, rx, MAX_GAIN_ORDER, stage, order)
    if s.k_total > MAX_K_TOTAL:
        _fail("k_total <= {} (the popularity model holds one probability "
              "per content; got {:g})", MAX_K_TOTAL, s.k_total)
    # r_max * r_max overflows to inf where r_max ** 2 would raise
    disc = s.lambda_e * math.pi * s.r_max * s.r_max
    if not math.isfinite(disc):
        _fail("lambda_e * pi * r_max^2 finite (got r_max = {:g} m)", s.r_max)
    if not s.b_paths <= disc:
        _fail("b_paths <= lambda_e * pi * r_max^2 (got {} > {:g})",
              s.b_paths, disc)
    if not s.alpha1 > 2:
        _fail("alpha1 > 2")
    # free-space alpha2 == 2 is the line-of-sight default for the access hop
    if not s.alpha2 >= 2:
        _fail("alpha2 >= 2")
    if not s.beta >= 0:
        _fail("beta >= 0")


def min_edge_density(s):
    """Sparsest edge density ``s`` accepts: above ``lambda_m``, with
    ``b_paths <= lambda_e * pi * r_max^2`` (that check multiplies where
    this divides, hence the 1e-12 relative margin against rounding)."""
    disc_floor = s.b_paths / (math.pi * s.r_max * s.r_max) * (1.0 + 1e-12)
    return max(math.nextafter(s.lambda_m, math.inf), disc_floor)


def _whole(name):
    def to_si(value):
        if not value.is_integer():
            raise ScenarioError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return to_si


def config_keys(cls, suffixed):
    """``{config key: (field, to_si)}`` for the dataclass ``cls``.

    Each field but ``assumed_defaults`` is a key taking its SI value (an
    ``int`` field only a whole number); ``suffixed`` adds the keys quoted
    in other units, each with the function taking its value to SI.
    """
    keys = {f.name: (f.name, _whole(f.name) if f.type is int else float)
            for f in fields(cls) if f.name != "assumed_defaults"}
    return keys | suffixed


def _per_million(value):
    # downscalings divide so the SI value rounds once, not twice
    return value / 1e6


_TIMES = ("t_ul_req", "t_dl_deli", "t_dl_as", "d_max")
SCENARIO_KEYS = config_keys(NetworkScenario, {
    **{f"{f}_per_km2": (f, _per_million)
       for f in ("lambda_m", "lambda_s", "lambda_u", "lambda_e")},
    **{f"{f}_dbm": (f, dbm_to_watt)
       for f in ("p_m", "p_s", "p_e", "p_u", "theta1", "theta3", "theta4")},
    "theta2_db": ("theta2", db_to_linear),
    "n0_dbm_per_hz": ("n0", dbm_to_watt),
    "w_mmw_mhz": ("w_mmw", lambda v: v * 1e6),
    "tau_mmw_us": ("tau_mmw", _per_million),
    "buffer_omega_mb": ("buffer_omega", lambda v: v * MEGABYTE),
    "l_fiber_km": ("l_fiber", lambda v: v * 1e3),
    **{f"{f}_ms": (f, lambda v: v / 1e3) for f in _TIMES},
    **{f"{f}_us": (f, _per_million) for f in _TIMES},
})


def _to_field(keys, key, raw_value):
    """``(field, SI value)`` of one config entry; ``None``, after a
    warning, for a key missing from ``keys``."""
    try:
        value = float(raw_value)
    except (TypeError, ValueError):
        raise ScenarioError(f"value for {key!r} is not numeric: {raw_value!r}")
    if key not in keys:
        warnings.warn(f"unknown config key {key!r} ignored", stacklevel=4)
        return None
    field, to_si = keys[key]
    try:
        return field, to_si(value)
    except OverflowError:
        raise ScenarioError(
            f"value for {key!r} overflows in SI units: {raw_value!r}") from None


@functools.lru_cache(maxsize=8)
def _entries(text):
    # (key, value) of each entry of a config document, both stripped:
    # a sweep builds one scenario per row from the same document, so its
    # lines are split once
    out = []
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
        out.append((key.strip(), value.strip()))
    return tuple(out)


def parse_config_text(text, keys):
    """Parse flat ``key = value`` text into ``{field: SI value}``.

    Blank lines and ``#`` comments are skipped; ``key: value`` is accepted
    too.  Each key is looked up in ``keys`` (a :func:`config_keys` table);
    an unknown key warns and is skipped, on every call.
    """
    out = {}
    for key, value in _entries(text):
        mapped = _to_field(keys, key, value)
        if mapped is not None:
            out[mapped[0]] = mapped[1]
    return out


def load_config(cls, keys, assumed_fields, text=None, overrides=None):
    """``cls`` from config text plus overrides, both looked up in
    ``keys``, flagging the ``assumed_fields`` that neither sets."""
    si = parse_config_text(text, keys) if text else {}
    for key, value in (overrides or {}).items():
        mapped = _to_field(keys, key, value)
        if mapped is not None:
            si[mapped[0]] = mapped[1]
    return cls(assumed_defaults=tuple(sorted(assumed_fields - set(si))), **si)


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
    return load_config(NetworkScenario, SCENARIO_KEYS, ASSUMED_DEFAULT_FIELDS,
                       text, overrides)


class _FieldText(dict):
    """``{value: "name=value"}`` of one hash field, the value as ``.17g``.

    It holds the field's last nonzero value only: the scenarios of a
    sweep's rows share all but a few values, and a zero is never kept,
    as 0.0 and -0.0 are one key but not one text.
    """

    __slots__ = ("template",)

    def __init__(self, name):
        super().__init__()
        self.template = f"{name}=%.17g"

    def __missing__(self, value):
        text = self.template % value
        self.clear()
        if value:
            self[value] = text
        return text


_FIELD_TEXTS = tuple(map(_FieldText, _FIELD_NAMES))
_hash_values = operator.attrgetter(*_FIELD_NAMES)


def _hash_payload(s):
    # "name=value,..." over _FIELD_NAMES
    return ",".join(map(operator.getitem, _FIELD_TEXTS, _hash_values(s)))


def scenario_hash(s):
    """Short content hash over the SI parameter values."""
    return hashlib.sha256(_hash_payload(s).encode()).hexdigest()[:12]

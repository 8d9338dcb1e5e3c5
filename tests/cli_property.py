"""Every config value ends in a documented exit code: a Hypothesis
property over the command line, run as a script in a process of its own.

For each scenario and energy key, ``optimize`` and a small ``sweep`` run
in-process through ``main()`` with the key set to an edge of its range,
0, a negative value, 1e300, 1e-300, nan, inf, a non-numeric string or a
drawn float or string, and a ``sweep`` over the key takes that value as
its grid.  The exit code must be 0, 1 or 2, no exception may escape, and
an exit 1 prints exactly one ``error:`` line (any other exit prints
nothing to stderr).  ``validate --trials 200`` runs the same way, with
exit code 0, 1 or 3, on the listed values (not the drawn ones) of the
keys the delivery oracle reads.  The script caps its own address
space first, so a value that slips past the scenario's bounds ends in a
MemoryError here instead of exhausting the host.

Run: ``python tests/cli_property.py``; it exits 0 when the property holds.
"""

import contextlib
import io
import resource
import sys
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcrnet.cli import TARGETS, main
from mcrnet.energy import ENERGY_KEYS
from mcrnet.scenario import MAX_GAIN_ORDER, MAX_K_TOTAL, SCENARIO_KEYS

# an optimize run peaks near 330 MB of address space
ADDRESS_SPACE = 2 << 30

SPECIAL = ("0", "-1", "1e300", "1e-300", "nan", "inf", "-inf", "abc")
# ends of the ranges the scenario checks state, in each key's own units;
# "1" (every integer field's lower end) is tried for every key.  The
# accepted end of k_total is left out: optimize then writes a 256 MB table
_ANTENNAS = ("nt_u", "nr_m", "nt_m", "nr_e", "nt_s", "nr_u")
EDGES = {
    **{k: (str(MAX_GAIN_ORDER // 2), str(MAX_GAIN_ORDER // 2 + 1))
       for k in _ANTENNAS},  # the other antenna count stays at 2
    "k_total": (str(MAX_K_TOTAL + 1),),
    "alpha1": ("2", "2.001"),
    "alpha2": ("2",),
    "lambda_e_per_km2": ("5", "50"),
    "lambda_m_per_km2": ("10",),
    "lambda_s_per_km2": ("10",),
}
# the keys of the fields the delivery oracle reads
DELI_KEYS = ("nt_m", "nr_e", "alpha1", "theta2", "theta2_db", "n0",
             "n0_dbm_per_hz", "w_mmw", "w_mmw_mhz", "lambda_m",
             "lambda_m_per_km2", "p_m", "p_m_dbm")
DRAWS = 8
SWEEP_TARGETS = ",".join(TARGETS)


def _check(argv, codes=(0, 1, 2)):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in codes, (argv, code)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    else:
        assert lines == [], (argv, lines)


def check_key(key):
    @settings(max_examples=DRAWS, derandomize=True, database=None,
              deadline=None)
    @given(value=st.floats().map(repr) | st.text(max_size=6))
    def prop(value):
        param = f"{key}={value}"
        _check(["optimize", "--param", param])
        _check(["sweep", "psi", "--values", "1,144",
                "--targets", SWEEP_TARGETS, "--param", param])
        _check(["sweep", key, f"--values={value}",
                "--targets", SWEEP_TARGETS])

    listed = SPECIAL + ("1",) + EDGES.get(key, ())
    for value in listed:
        prop = example(value=value)(prop)
    prop()
    if key in DELI_KEYS:
        for value in listed:
            _check(["validate", "--trials", "200", "--param",
                    f"{key}={value}"], codes=(0, 1, 3))


def main_property():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    # the warnings the test suite makes errors
    for category in (RuntimeWarning, UserWarning, DeprecationWarning,
                     FutureWarning):
        warnings.filterwarnings("error", category=category)
    for key in list(SCENARIO_KEYS) + list(ENERGY_KEYS):
        check_key(key)
    return 0


if __name__ == "__main__":
    sys.exit(main_property())

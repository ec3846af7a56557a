"""Benchmark workloads and the correctness rules applied to their output.

A workload is a list of ``tfmult run`` configs that one fresh process runs
one after another (a closed loop with one client).

* ``suite_1d``: the ten ``tfmult list`` experiments at their default
  configs, in list order.  This is the paper battery a user runs: hundreds of
  small and medium calls through the vectorized 1D gather, batched 1D FFTs,
  the materialized STFT (``chirp_stft``, which sets peak memory), the ``mult``
  propagators, ``fl1_norm`` and CSV/SVG output.  The benchmark seed goes into
  ``linear_phase``'s ``seed`` key; the other nine experiments have no random
  input.
* ``amalgam_2d``: ``amalgam_constants`` with ``d = 2`` and the default
  ``t_list``, including the t = 4 case.  Few calls on huge batches (the 256^2
  grid at stride 4 and a 512^2 grid for t = 4 M^{1,inf}) through the
  per-position 2D gather, mixing a sum-over-frequency reduction (W) with a
  sup-over-frequency one (M^{1,inf}).  It has no random input.
"""

from __future__ import annotations

import csv
import math

SUITE_1D = (
    "amalgam_constants",
    "chirp_stft",
    "dyadic_series",
    "linear_phase",
    "lp_contrast",
    "m_inf_1_divergence",
    "operator_probe",
    "schrodinger_conservation",
    "sin_singular_fl1",
    "wave_conservation",
)

WORKLOADS = ("suite_1d", "amalgam_2d")


def configs(workload: str, seed: int) -> list:
    """[(experiment name, INI text)] for one run of the workload."""
    if workload == "suite_1d":
        out = []
        for name in SUITE_1D:
            extra = f"seed = {seed % 2 ** 31}\n" if name == "linear_phase" else ""
            out.append((name, f"[experiment]\nname = {name}\n{extra}"))
        return out
    if workload == "amalgam_2d":
        return [("amalgam_constants", "[experiment]\nname = amalgam_constants\nd = 2\n")]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# Rows whose ``predicted`` column is a true closed form.  Every other row is
# left out of oracle_dev_max, for these reasons:
# * schrodinger_conservation p=1;q=inf: ``predicted`` is fitted from the data
#   and ``rel_deviation`` holds c / fitted_c, not a deviation;
# * operator_probe: there is no prediction;
# * m_inf_1_divergence growth rows: the 2.0 they are compared with is a
#   trend, not a closed form;
# * the remaining rows carry no ``predicted`` value.
def is_oracle_row(experiment: str, parameters: str) -> bool:
    keys = dict(kv.split("=", 1) for kv in parameters.split(";") if "=" in kv)
    if experiment in ("chirp_stft", "linear_phase"):
        return True
    if experiment == "amalgam_constants":
        return keys.get("norm") in ("W", "M1inf")
    if experiment == "lp_contrast":
        return keys.get("space") == "L1"
    if experiment == "wave_conservation":
        return keys.get("quantity") == "energy_drift"
    if experiment == "schrodinger_conservation":
        return keys.get("p") == "2" and keys.get("q") == "2"
    return False


def oracle_deviations(csv_text: str) -> list:
    """|measured - predicted| / |predicted| of every oracle row of a results.csv.

    A prediction of exactly 0 (an error or a drift that should vanish) has no
    relative scale, so the absolute deviation is used there.
    """
    devs = []
    for row in csv.DictReader(csv_text.splitlines()):
        if not is_oracle_row(row["experiment"], row["parameters"]):
            continue
        measured, predicted = float(row["measured"]), float(row["predicted"])
        dev = abs(measured - predicted)
        if predicted != 0.0:
            dev /= abs(predicted)
        if not math.isfinite(dev):
            raise ValueError(f"non-finite deviation in row {row}")
        devs.append(dev)
    return devs

"""Central tolerance ledger for the verification battery.

Every numerical check reads its tolerance from here so that a run is fully
reproducible from one place; every key here is read by a check.  Set the
environment variable MEMN_TOLERANCES to a JSON file of overrides
({"name": value, ...}) to adjust them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

DEFAULTS = {
    "row_sum": 1e-12,
    "payoff_methods": 1e-8,
    "reactive_closed_form": 1e-10,
    "constant_shift": 1e-10,
    "decomposition_closure": 1e-10,
    "reflection_residual": 1e-12,
    "gradient_relative": 1e-6,
    "closed_form_relative": 1e-6,
    "field_decomposition": 1e-8,
    "collinearity_angle": 1e-6,
    "counting_invariance": 1e-9,
    "reactive_fields": 1e-10,
    "conserved_drift_per_time": 1e-7,
    "tft_order_minimum": 1.0,
    "z2_deviation_n1": 1e-6,
    "z2_deviation_n2": 1e-5,
    "perturbation_ratio_low": 8.0,
    "perturbation_ratio_high": 12.0,
}


def load_tolerances() -> dict:
    """Defaults merged with the optional MEMN_TOLERANCES override file.

    A file that cannot be read or is not a JSON object, an unknown name, and
    a value that is not a finite JSON number raise ValueError naming them.
    """
    values = dict(DEFAULTS)
    path = os.environ.get("MEMN_TOLERANCES")
    if path:
        try:
            with open(path, encoding="utf8") as handle:
                overrides = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read tolerance file {path}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ValueError(f"tolerance file {path} is not a JSON object")
        for name, value in overrides.items():
            if name not in values:
                raise ValueError(f"unknown tolerance name {name!r} in {path}")
            # true would read as 1.0, and an infinite bound switches a check off;
            # the comparison is exact, so it refuses NaN and 1e400 as an integer
            if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
                raise ValueError(
                    f"tolerance {name!r} in {path} must be a finite JSON number, "
                    f"not {json.dumps(value)}"
                )
            values[name] = float(value)
    return values


def tolerance_hash(values: dict) -> str:
    """Stable fingerprint of the tolerance set, embedded in reports."""
    canonical = json.dumps(values, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()[:16]

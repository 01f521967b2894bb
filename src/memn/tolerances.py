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

DEFAULTS = {
    "row_sum": 1e-12,
    "conjugation_equality": 0.0,
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
    """Defaults merged with the optional MEMN_TOLERANCES override file."""
    values = dict(DEFAULTS)
    path = os.environ.get("MEMN_TOLERANCES")
    if path:
        with open(path, encoding="utf8") as handle:
            overrides = json.load(handle)
        unknown = set(overrides) - set(values)
        if unknown:
            raise KeyError(f"unknown tolerance names: {sorted(unknown)}")
        values.update({k: float(v) for k, v in overrides.items()})
    return values


def tolerance_hash(values: dict) -> str:
    """Stable fingerprint of the tolerance set, embedded in reports."""
    canonical = json.dumps(values, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf8")).hexdigest()[:16]

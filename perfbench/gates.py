"""Correctness gates: each takes measured outputs and returns (ok, detail).

Gates are pure functions of numbers and arrays so that tests can hand them
deliberately wrong inputs. `Gates` counts how many were attempted and how
many failed across a run.
"""

from __future__ import annotations

import math

import numpy as np


class Gates:
    def __init__(self, out):
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.verbose = True

    def check(self, name, result):
        ok, detail = result
        self.attempted += 1
        self.failed += not ok
        if self.verbose or not ok:
            self.out(f"[gate] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        return ok


def below(value, limit, what="value"):
    return value < limit, f"{what} {value:.4g} < {limit:.4g}"


def at_most(value, limit, what="value"):
    return value <= limit, f"{what} {value:.3e} <= {limit:.3e}"


def at_least(value, floor, what="value"):
    return value >= floor, f"{what} {value:.6g} >= {floor:.6g}"


def in_window(value, lo, hi, what="slope"):
    return lo <= value <= hi, f"{what} {value:.4f} in [{lo}, {hi}]"


def p_value(p, floor=1e-3):
    return p > floor, f"p={p:.3g} > {floor:g}"


def non_increasing(values, slack):
    """Each value may exceed its predecessor by at most `slack`."""
    rises = [(a, b) for a, b in zip(values, values[1:]) if b > a + slack]
    shown = "/".join(f"{v:.4f}" for v in values)
    if rises:
        return False, f"{shown} rises {rises[0][0]:.4f} -> {rises[0][1]:.4f} by more than {slack:.4f}"
    return True, f"{shown} never rises by more than {slack:.4f}"


def same_ensemble(original, back):
    """Byte-exact round trip: grid and samples as little-endian f64 bytes,
    plus the metadata fields."""
    def raw(a):
        return np.ascontiguousarray(a, dtype="<f8").tobytes()

    bad = [
        name for name, ok in (
            ("obs_grid", raw(original.obs_grid) == raw(back.obs_grid)),
            ("samples", original.samples.shape == back.samples.shape
             and raw(original.samples) == raw(back.samples)),
            ("kind", original.kind == back.kind),
            ("seed", original.seed == back.seed),
            ("epsilon", raw(original.epsilon) == raw(back.epsilon)),
            ("alpha", original.alpha == back.alpha),
        ) if not ok
    ]
    return not bad, ("all bytes equal" if not bad else "differs in " + ", ".join(bad))


def ou_marginal(values, mean, var, z=5.0):
    """Sample mean and variance of one coordinate against the exact OU law,
    each within z standard errors."""
    values = np.asarray(values, dtype=float)
    n = values.size
    m, v = float(values.mean()), float(values.var(ddof=1))
    mean_se = math.sqrt(var / n)
    var_se = var * math.sqrt(2.0 / (n - 1))
    ok = abs(m - mean) <= z * mean_se and abs(v - var) <= z * var_se
    return ok, (f"mean {m:.4f} vs {mean:.4f} (+-{z:g}x{mean_se:.4f}), "
                f"var {v:.4f} vs {var:.4f} (+-{z:g}x{var_se:.4f})")

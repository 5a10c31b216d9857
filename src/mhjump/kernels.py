"""Jump-rate kernels and the exact-thinning dominating kernel.

Rate densities, for a single-coordinate move x -> y = x + z e_i:

    M(x, y) = (1/d*) s(x, y) phi_eps(z),   s = s1, s2, or alpha s1 + (1-alpha) s2

where phi_eps is the N(0, eps) density. s1 <= 1 always, so the classical
process is simulated by plain thinning of a rate-1 Poisson clock. s2 is
unbounded relative to phi_eps, but s2 <= exp(theta |z|) with
theta = grad_bound / T, which makes e^{theta|z|} phi_eps(z) a dominating
displacement density with total mass

    Lam(eps) = E exp(theta |Z|) = 2 exp(eps theta^2 / 2) Phi(theta sqrt(eps)).

A target whose slope bound depends on the state (TargetPotential.slope_bound)
gives the state-dependent tilt theta(x) = max_i slope_bound(x)_i / T instead;
the max over coordinates keeps the kernel, and so the coordinate draw, the
same for every i. The clock rate R(x) = alpha + (1-alpha) Lam(eps, theta(x))
then depends on the state, but it is constant between accepted jumps,
because rejected candidates do not move the state, so thinning stays exact
(Lewis & Shedler 1979; the local bounds of the Zig-Zag sampler, Bierkens,
Fearnhead & Roberts 2019). One formula, row_kernel, gives a kernel's mean,
truncation and mass from its tilt, whether the tilt is one constant that
every state shares, theta(x) one per row, or 0 for m1's untilted proposal
(mass exactly 1).

Splitting e^{theta z} phi_eps(z) = e^{eps theta^2/2} phi_eps(z - eps theta)
turns the normalized dominating density into an equal-weight two-sided
mixture of shifted Gaussians restricted to half-lines, sampled exactly by a
sign flip plus one inverse-cdf draw (no rejection). That draw, sample_abs,
is the simulators' |z| transform for every candidate event, with the mean
and truncation of one kernel or of one kernel per row; a per-row mask sends
plain-branch candidates to the untilted proposal.

Accepted-rate algebra for the mixture family, the contract the simulator
relies on: candidates arrive at rate R = alpha + (1-alpha) Lam(eps) with
displacement density

    q(z) = [alpha phi_eps(z) + (1-alpha) e^{theta|z|} phi_eps(z)] / R,

realized by branching to the plain component with probability alpha/R and to
the tilted component otherwise. Accepting a candidate with probability

    a(z) = [alpha s1 + (1-alpha) s2] / [alpha + (1-alpha) e^{theta|z|}]

yields accepted events at rate density R q(z) a(z)
= [alpha s1 + (1-alpha) s2] phi_eps(z), exactly the mixture rate. a(z) <= 1
because s1 <= 1 and s2 <= e^{theta|z|}; alpha = 1 reduces to plain-clock
thinning with a(z) = s1 and alpha = 0 to a(z) = s2 e^{-theta|z|}. A computed
log a > 0 means the declared bound (grad_bound, or slope_bound at the current
state) was not a true bound and is raised as a hard error by check_domination
rather than clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError, DominationError
from .targets import log_s_mix

_KIND_TAGS = ("m1", "m2", "mix")


@dataclass(frozen=True)
class GeneratorKind:
    """Which jump dynamics: classical (m1), accelerated (m2), or a mixture."""

    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in _KIND_TAGS:
            raise ConfigurationError(f"unknown generator kind {self.tag!r}; known: {_KIND_TAGS}")
        if self.tag == "mix":
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise ConfigurationError(f"mix needs alpha in [0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise ConfigurationError(f"kind {self.tag!r} takes no alpha")

    @property
    def alpha_eff(self) -> float:
        """Weight on the classical factor: 1 for m1, 0 for m2, alpha for mix."""
        if self.tag == "m1":
            return 1.0
        if self.tag == "m2":
            return 0.0
        return float(self.alpha)

    def label(self) -> str:
        return self.tag if self.tag != "mix" else f"mix({self.alpha:g})"

    @classmethod
    def m1(cls):
        return cls("m1")

    @classmethod
    def m2(cls):
        return cls("m2")

    @classmethod
    def mix(cls, alpha):
        return cls("mix", float(alpha))

    @classmethod
    def from_string(cls, text, alpha=None):
        text = text.strip().lower()
        if text.startswith("mix:"):
            if alpha is not None:
                raise ConfigurationError(f"kind {text!r} takes no alpha")
            weight = text.split(":", 1)[1]
            try:
                return cls.mix(float(weight))
            except ValueError:
                raise ConfigurationError(f"mix weight must be a number, got {weight!r}") from None
        if text == "mix":
            if alpha is None:
                raise ConfigurationError("kind 'mix' needs alpha")
            return cls.mix(alpha)
        return cls(text, alpha)


def sample_abs(u, sigma, mean_abs, trunc_lo, tilted):
    """Inverse-cdf |z| from N(mean_abs, sigma^2) conditioned on z > 0.

    mean_abs and trunc_lo, the tilted component's mean and cut mass, are one
    kernel's or one per row. tilted masks the draws per row: where it is
    False the draw comes from the plain proposal instead, |N(0, sigma^2)|.
    tilted None, a kernel with one component (m2's tilted one, m1's
    untilted one), draws every |z| from it and builds no mask. Returns an
    array, 0-d for one draw: the chain runs in place in the one array it
    allocates.
    """
    if tilted is not None:
        mean_abs = np.where(tilted, mean_abs, 0.0)
        trunc_lo = np.where(tilted, trunc_lo, 0.5)
    r = np.asarray(u * (1.0 - trunc_lo))
    np.add(trunc_lo, r, out=r)
    ndtri(r, out=r)
    np.multiply(sigma, r, out=r)
    return np.add(mean_abs, r, out=r)


def row_kernel(epsilon, theta):
    """(mean_abs, trunc_lo, Lam) of the kernel tilted by theta, one theta or
    one per row: Lam = 2 exp(eps theta^2 / 2) Phi(theta sqrt(eps)).

    A kernel whose mass would overflow (eps theta^2 / 2 > 700) is refused.
    theta = 0 gives the proposal: mean 0, half the mass cut, mass 1. numpy
    evaluates one theta and a block of rows alike, so the scalar and block
    engines get the same bits.
    """
    mean = epsilon * theta
    growth = 0.5 * mean * theta
    worst = np.maximum.reduce(growth, axis=None)  # np.max without its wrapper
    if worst > 700.0:
        raise ConfigurationError(f"dominating mass overflows: eps*theta^2/2 = "
                                 f"{worst:.3g}; reduce eps or the declared bound")
    lo = ndtr(theta * -math.sqrt(epsilon))
    return mean, lo, np.exp(math.log(2.0) + growth + np.log1p(-lo))


def log_rate_density(kind, target, proposal, x, i, y_i):
    """log M(x, y) for the move x -> x + (y_i - x_i) e_i."""
    x = np.asarray(x, dtype=float)
    z = y_i - x[..., i]
    du = target.delta_u_move(x, i, z)
    return (
        log_s_mix(du, target.T, kind.alpha_eff)
        + proposal.logpdf(z)
        - math.log(target.d_star)
    )


def accept_log_from_delta(du, abs_z, alpha_eff, theta, T):
    """log a(z) from precomputed dU and |z|; the array core of thinning.

    a(z) = [alpha s1 + (1-alpha) s2] / [alpha + (1-alpha) e^{theta|z|}].
    """
    num = log_s_mix(du, T, alpha_eff)
    if alpha_eff == 1.0:
        return num
    tilt = theta * np.asarray(abs_z, dtype=float)
    if alpha_eff == 0.0:
        return num - tilt
    den = np.logaddexp(math.log(alpha_eff), math.log1p(-alpha_eff) + tilt)
    return num - den


_ACCEPT_SLACK = 1e-9


def check_domination(la, kind, target, where):
    """Raise DominationError if a log-acceptance exceeds 0 beyond rounding.

    la holds one log a(z) per move; where(k) describes move k for the message.
    """
    if (la > _ACCEPT_SLACK).any():
        k = int(np.argmax(la))
        bound = ("slope_bound at this state" if target.grad_bound is None
                 else f"grad_bound {target.grad_bound}")
        raise DominationError(
            f"acceptance log-probability {float(np.max(la)):.3e} > 0 for kind "
            f"{kind.label()} at {where(k)}: the declared {bound} is not a true bound along "
            "this move; declare a true grad_bound or slope_bound"
        )

"""Regret measurement and the matching upper-bound calculators.

Dynamic regret compares the network-average loss along the agents' iterates
with the loss along the moving per-round minimizer.  The regret and
loss-gap measurements evaluate their losses for the whole horizon at once
through the (T, m, d) functions of objectives (global_loss_batch,
agent_loss_batch), which work in bounded round blocks, so no Python loop
runs over rounds, agents or points.

The calculators evaluate the guarantees as exact finite sums: a tracking
term driven by the domain radius, the step sizes and the accumulated target
perturbation, plus a network term driven by the mixing matrix's second
singular value.

Two conventions make every sum well defined: eta_0 is read as eta_1, and
0^0 counts as 1, so the network term does not vanish for perfectly mixing
matrices; reports carry a note whenever that case is hit.
"""

from dataclasses import dataclass, field

import numpy as np

from . import csvio
from .geometry import vector_norm
from .objectives import agent_loss_batch, check_rounds, global_loss_batch


@dataclass(frozen=True)
class RegretReport:
    """Empirical regret of one run.

    cumulative[t-1] holds the dynamic regret accumulated through round t and
    normalized[t-1] divides it by t; instant is the per-round gap.
    """

    dynamic_regret: float
    instant: np.ndarray
    cumulative: np.ndarray
    normalized: np.ndarray
    static_regret: float = None
    path_variation: float = None


def _targets(path, horizon):
    """Per-round minimizers for rounds 1 .. horizon, as a (horizon, d) array."""
    check_rounds("comparator path", path.states, horizon)
    return path.states[:horizon]


def _average_losses(trace, ens, path):
    """Per-round network-average loss at the iterates and at the comparator."""
    horizon = trace.horizon
    at_iterates = global_loss_batch(ens, path, trace.x[:horizon]).mean(axis=1)
    at_comparator = global_loss_batch(ens, path, _targets(path, horizon)[:, None, :])[:, 0]
    return at_iterates, at_comparator


def dynamic_regret(trace, ens, path):
    """Regret against the per-round minimizers path.states[0..T-1]."""
    at_iterates, at_comparator = _average_losses(trace, ens, path)
    instant = at_iterates - at_comparator
    cumulative = np.cumsum(instant)
    steps = np.arange(1, trace.horizon + 1)
    return RegretReport(
        dynamic_regret=float(cumulative[-1]) if trace.horizon else 0.0,
        instant=instant,
        cumulative=cumulative,
        normalized=cumulative / steps,
    )


def best_fixed_point(ens, path, domain, horizon):
    """argmin over the domain of the summed network-average loss.

    Closed forms: square-loss families are minimized at the time average of
    the targets (then projected); linear families at an extreme point.
    """
    if ens.kind in ("tracking_square", "synthetic_quadratic"):
        center = _targets(path, horizon).mean(axis=0)
        if domain.kind == "box":
            return np.clip(center, domain.lo, domain.hi)
        return center
    check_rounds("ens.gradients", ens.gradients, horizon)
    mean_g = ens.gradients[:horizon].mean(axis=1).sum(axis=0) / horizon
    if domain.kind == "box":
        return np.where(mean_g > 0, domain.lo, domain.hi)
    if domain.kind == "simplex":
        out = np.full(domain.d, domain.floor)
        out[int(np.argmin(mean_g))] = 1.0 - (domain.d - 1) * domain.floor
        return out
    raise ValueError("static regret needs a bounded domain")


def static_regret(trace, ens, path, domain):
    """Regret against the best fixed feasible point in hindsight."""
    if domain.kind == "free":
        raise ValueError("static regret needs a bounded domain")
    horizon = trace.horizon
    if horizon == 0:
        return 0.0
    comparator = best_fixed_point(ens, path, domain, horizon)
    at_iterates, _ = _average_losses(trace, ens, path)
    fixed = np.broadcast_to(comparator, (horizon, 1, domain.d))
    at_fixed = global_loss_batch(ens, path, fixed)[:, 0]
    return float(at_iterates.sum() - at_fixed.sum())


def per_agent_loss_gap(trace, ens, path):
    """(1/n) sum_{i,t} f[i,t](x[i,t]) - f[i,t](target_t), the local-loss analogue."""
    iterates = trace.x[:trace.horizon]
    targets = np.broadcast_to(_targets(path, trace.horizon)[:, None, :], iterates.shape)
    gaps = agent_loss_batch(ens, path, iterates) - agent_loss_batch(ens, path, targets)
    return float(gaps.sum()) / trace.n


def network_disagreement(trace):
    """max_i ||x[i,t] - xbar_t|| in the geometry norm for t = 1 .. horizon+1."""
    dev = trace.x - trace.x.mean(axis=1)[:, None, :]
    return vector_norm(trace.norm_kind, dev).max(axis=1)


def _eta_with_zero(etas):
    etas = np.asarray(etas, dtype=float)
    if etas.size == 0 or np.any(etas <= 0):
        raise ValueError("step sizes must be positive")
    return np.concatenate(([etas[0]], etas))  # eta_0 read as eta_1


def _discounted_steps(sigma2, ext, rounds):
    """A[k] = sum_{tau=0..k} eta_tau sigma2^(k-tau) for k = 0 .. rounds, 0^0 := 1.

    Built by the recursion A[k] = sigma2 A[k-1] + eta_k, so every entry is
    a plain running sum with no pairwise reordering.
    """
    out = np.empty(rounds + 1)
    acc = 0.0
    for k in range(rounds + 1):
        acc = sigma2 * acc + ext[k]
        out[k] = acc
    return out


def disagreement_envelope(lipschitz, n, sigma2, etas):
    """Upper envelope for the network disagreement.

    Entry t-1 (t = 1..T) bounds max_i ||x[i,t+1] - xbar[t+1]|| by
    L sqrt(n) sum_{tau=0..t} eta_tau sigma2^(t-tau), with eta_0 := eta_1 and
    0^0 := 1 so a perfectly mixing matrix keeps its final term.
    """
    if not 0 <= sigma2 <= 1:
        raise ValueError("sigma2 must lie in [0, 1]")
    ext = _eta_with_zero(etas)  # ext[tau] = eta_tau, tau = 0..len(etas)
    return lipschitz * np.sqrt(n) * _discounted_steps(sigma2, ext, len(etas))[1:]


def _network_sum(sigma2, ext, horizon):
    # sum_{t=1..T} sum_{tau=0..t-1} eta_tau sigma2^(t-1-tau), 0^0 := 1
    total = 0.0
    for acc in _discounted_steps(sigma2, ext, horizon - 1).tolist():
        total += acc
    return total


@dataclass(frozen=True)
class BoundReport:
    """Exact finite-sum evaluation of the regret guarantees for one run."""

    e_track: float
    e_net: float
    total: float
    stochastic_total: float
    disagreement_curve: np.ndarray
    mismatch_rhs: float
    local_gap_rhs: float
    variation_tuned_value: float
    sigma2: float
    c_t: float
    notes: tuple = field(default=())


def regret_guarantee(consts, lipschitz, sigma2, etas, noise_norms, n,
                     grad_second_moment=None):
    """Evaluate the dynamic regret guarantee as exact sums.

    etas must cover rounds 1..T+1; noise_norms holds ||v_t|| for t = 1..T in
    the geometry norm.  The tracking term is
        2 R^2 / eta_{T+1} + sum_t (K / eta_{t+1}) ||v_t|| + L^2 sum_t eta_t / 2
    and the network term is
        4 L^2 sqrt(n) sum_t sum_{tau<t} eta_tau sigma2^(t-tau-1).
    grad_second_moment, when given, is G^2 from the stochastic oracle and
    fills the expected-regret variant (L^2 replaced by G^2 in both terms).
    """
    if not consts.available:
        raise ValueError("bound calculators need a bounded domain")
    if not 0 <= sigma2 <= 1:
        raise ValueError("sigma2 must lie in [0, 1]")
    noise_norms = np.asarray(noise_norms, dtype=float)
    horizon = noise_norms.size
    etas = np.asarray(etas, dtype=float)
    if etas.size < horizon + 1:
        raise ValueError("need step sizes through round T+1")
    ext = _eta_with_zero(etas)
    c_t = float(noise_norms.sum())
    mismatch = float(np.sum(noise_norms / etas[1:horizon + 1])) if horizon else 0.0
    radius_term = 2.0 * consts.r2 / etas[horizon]
    step_sum = float(etas[:horizon].sum())
    net_sum = _network_sum(sigma2, ext, horizon)
    e_track = radius_term + consts.k * mismatch + lipschitz**2 * step_sum / 2.0
    e_net = 4.0 * lipschitz**2 * np.sqrt(n) * net_sum
    mismatch_rhs = radius_term + mismatch
    local_gap_rhs = e_track + e_net / 2.0
    if grad_second_moment is None:
        stochastic_total = float("nan")
    else:
        g2 = float(grad_second_moment)
        stochastic_total = (radius_term + consts.k * mismatch + g2 * step_sum / 2.0
                            + 4.0 * g2 * np.sqrt(n) * net_sum)
    tuned = float("nan")
    if c_t > 0 and horizon:
        tuned = tuned_step_guarantee(consts, lipschitz, sigma2, c_t, n, horizon)
    notes = ()
    if sigma2 == 0:
        notes = ("sigma2=0: network term keeps its tau=t-1 contribution by the 0^0=1 convention",)
    return BoundReport(
        e_track=float(e_track),
        e_net=float(e_net),
        total=float(e_track + e_net),
        stochastic_total=stochastic_total,
        disagreement_curve=disagreement_envelope(lipschitz, n, sigma2, etas[:horizon]),
        mismatch_rhs=float(mismatch_rhs),
        local_gap_rhs=float(local_gap_rhs),
        variation_tuned_value=tuned,
        sigma2=float(sigma2),
        c_t=c_t,
        notes=notes,
    )


def tuned_step(c_t, sigma2, horizon, fallback_eta=None):
    """The variation-tuned constant step sqrt((1 - sigma2) c_t / T).

    With no anticipated variation (c_t <= 0) the step is fallback_eta,
    and it is an error to give none.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if not 0 <= sigma2 < 1:
        raise ValueError("sigma2 must lie in [0, 1)")
    if c_t <= 0:
        if fallback_eta is None:
            raise ValueError("c_t must be positive unless a fallback step is given")
        return float(fallback_eta)
    return float(np.sqrt((1.0 - sigma2) * c_t / horizon))


def tuned_step_guarantee(consts, lipschitz, sigma2, c_t, n, horizon):
    """Guarantee at the variation-tuned constant step (see tuned_step).

    At that step the bound scales like sqrt(c_t * T / (1 - sigma2)).
    """
    if not consts.available:
        raise ValueError("bound calculators need a bounded domain")
    eta = tuned_step(c_t, sigma2, horizon)
    etas = np.full(horizon + 1, eta)
    ext = _eta_with_zero(etas)
    net_sum = _network_sum(sigma2, ext, horizon)
    e_track = 2.0 * consts.r2 / eta + consts.k * c_t / eta + lipschitz**2 * eta * horizon / 2.0
    e_net = 4.0 * lipschitz**2 * np.sqrt(n) * net_sum
    return float(e_track + e_net)


def write_regret_csv(report, file, comments=()):
    scalars = [
        ("dynamic_regret", report.dynamic_regret),
        ("static_regret", report.static_regret),
        ("path_variation", report.path_variation),
    ]
    lead = list(comments) + [f"{k}={csvio.fmt(v)}" for k, v in scalars if v is not None]
    rows = [[t + 1, report.instant[t], report.cumulative[t], report.normalized[t]]
            for t in range(report.instant.size)]
    csvio.write_csv(file, ["t", "instant", "cumulative", "normalized"], rows, lead)


def write_bound_csv(report, file, comments=()):
    scalars = [
        ("e_track", report.e_track),
        ("e_net", report.e_net),
        ("total", report.total),
        ("stochastic_total", report.stochastic_total),
        ("mismatch_rhs", report.mismatch_rhs),
        ("local_gap_rhs", report.local_gap_rhs),
        ("variation_tuned_value", report.variation_tuned_value),
        ("sigma2", report.sigma2),
        ("c_t", report.c_t),
    ]
    lead = list(comments) + [f"{k}={csvio.fmt(v)}" for k, v in scalars]
    lead += [f"note={n}" for n in report.notes]
    rows = [[t + 1, report.disagreement_curve[t]]
            for t in range(report.disagreement_curve.size)]
    csvio.write_csv(file, ["t", "disagreement_bound"], rows, lead)

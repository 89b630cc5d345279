"""Regret measurement and the matching upper-bound calculators.

Dynamic regret compares the network-average loss along the agents' iterates
with the loss along the moving per-round minimizer.  The regret and
loss-gap measurements evaluate their losses for the whole horizon at once
through the (T, m, d) functions of objectives (global_loss_batch,
agent_loss_batch), which work in bounded round blocks, so no Python loop
runs over rounds, agents or points.

The guarantee is written once, in _terms, as four exact finite sums: the
radius, mismatch and step terms of the tracking part, and a network term
driven by the mixing matrix's second singular value.  The L^2, G^2 and
variation-tuned (L^2 at the constant tuned_step) bounds are evaluations of
it.  The CSV writers derive their k=v comment lines from the report's scalar
fields, so a new field reaches the file without a second list.

Two conventions make every sum well defined: eta_0 is read as eta_1, and
0^0 counts as 1, so the network term does not vanish for perfectly mixing
matrices; reports carry a note whenever that case is hit.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from . import csvio
from .geometry import vector_norm
from .objectives import agent_loss_batch, check_rounds, global_loss_batch

# Most rows _discounted_steps runs as Python floats.  Over 1000 rounds a
# row took about 0.09 ms that way, against about 1.2 ms for one numpy pass
# over any row count up to 32: Python wins up to about 14 rows, so a lone
# run's two rows take it and a 16-run sweep's 32 rows do not.
SCALAR_RECURSION_ROWS = 8


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


def iterate_losses(trace, ens, path):
    """f_t at every agent's iterate x[i, t], averaged over the agents, for t = 1 .. T.

    dynamic_regret and static_regret both read it; a caller that needs both
    computes it once and passes it to each as `losses`.
    """
    return global_loss_batch(ens, path, trace.x[:trace.horizon]).mean(axis=1)


def dynamic_regret(trace, ens, path, losses=None):
    """Regret against the per-round minimizers path.states[0..T-1].

    losses, when given, is iterate_losses(trace, ens, path).
    """
    horizon = trace.horizon
    at_iterates = iterate_losses(trace, ens, path) if losses is None else losses
    at_comparator = global_loss_batch(ens, path, _targets(path, horizon)[:, None, :])[:, 0]
    instant = at_iterates - at_comparator
    cumulative = np.cumsum(instant)
    steps = np.arange(1, horizon + 1)
    return RegretReport(
        dynamic_regret=float(cumulative[-1]) if horizon else 0.0,
        instant=instant,
        cumulative=cumulative,
        normalized=cumulative / steps,
    )


def best_fixed_point(ens, path, domain, horizon):
    """argmin over the domain of the summed network-average loss.

    Closed forms: square-loss families are minimized at the time average of
    the targets (then projected); linear families at an extreme point.
    """
    if ens.gradients is None:
        center = _targets(path, horizon).mean(axis=0)
        if domain.kind == "box":
            return np.clip(center, domain.lo, domain.hi)
        return center
    check_rounds("ens.gradients", ens.gradients, horizon)
    mean_g = ens.gradients[:horizon].mean(axis=1).sum(axis=0) / horizon
    if domain.kind == "box":
        return np.where(mean_g > 0, domain.lo, domain.hi)
    out = np.full(domain.d, domain.floor)
    out[int(np.argmin(mean_g))] = 1.0 - (domain.d - 1) * domain.floor
    return out


def static_regret(trace, ens, path, domain, losses=None):
    """Regret against the best fixed feasible point in hindsight.

    losses, when given, is iterate_losses(trace, ens, path).
    """
    horizon = trace.horizon
    if horizon == 0:
        return 0.0
    comparator = best_fixed_point(ens, path, domain, horizon)
    at_iterates = iterate_losses(trace, ens, path) if losses is None else losses
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


def _discounted_steps(sigma2, etas, rounds):
    """A[k] = sum_{tau=0..k} eta_tau sigma2^(k-tau) for k = 0 .. rounds, eta_0 := eta_1, 0^0 := 1.

    etas may carry leading replicate axes: (..., >= rounds) gives
    (..., rounds + 1).  Built by the recursion A[k] = sigma2 A[k-1] + eta_k,
    row by row in Python floats up to SCALAR_RECURSION_ROWS rows, else one
    numpy pass over the rounds for every row at once.  Either way every
    entry is a plain running sum with no pairwise reordering, taking the
    same two roundings a round, bit-equal to its row's recursion alone.
    """
    etas = np.asarray(etas, dtype=float)
    if etas[..., 0].size <= SCALAR_RECURSION_ROWS:
        decay, rows = float(sigma2), []
        for row in etas.reshape(-1, etas.shape[-1]).tolist():
            acc = row[0]
            rows.append([acc])
            for eta in row[:rounds]:
                acc = decay * acc + eta
                rows[-1].append(acc)
        return np.array(rows).reshape(etas.shape[:-1] + (rounds + 1,))
    steps = np.empty((rounds + 1,) + etas.shape[:-1])
    steps[0] = etas[..., 0]
    steps[1:] = np.moveaxis(etas[..., :rounds], -1, 0)
    # round-major rows: rows[k] views A[k] of every row, updated in place
    rows = steps.reshape(rounds + 1, -1)
    decayed = np.empty(rows.shape[1])
    for prev, cur in zip(rows[:-1], rows[1:]):
        np.multiply(sigma2, prev, out=decayed)
        np.add(cur, decayed, out=cur)
    return np.moveaxis(steps, 0, -1)


def _guarantee_steps(sigma2, etas, c_ts, horizon):
    """The two rows A[0..T] of _discounted_steps that regret_guarantee reads,
    for each of R runs in one recursion: (R, 2, T+1).

    etas is (R, >= T+1) and c_ts holds each run's C_T.  Row 0 is at the
    run's etas, row 1 at the constant tuned_step of its C_T; a run with
    C_T = 0 has no tuned step, and its row 1 repeats row 0.
    """
    rows = np.empty((len(c_ts), 2, horizon + 1))
    rows[:, 0] = np.asarray(etas, dtype=float)[:, :horizon + 1]
    for row, c_t in zip(rows, c_ts):
        row[1] = tuned_step(c_t, sigma2, horizon) if c_t > 0 else row[0]
    return _discounted_steps(sigma2, rows, horizon)


def _terms(consts, c, etas, noise_norms, n, steps):
    """The guarantee's four terms at steps etas and squared gradient constant c.

    etas cover rounds 1..T+1, noise_norms holds ||v_t|| for t = 1..T and
    steps holds A[0..T] of _discounted_steps at etas.  Returns the terms
    (radius, mismatch, step, network)
        (2 R^2 / eta_{T+1}, K sum_t ||v_t|| / eta_{t+1}, c sum_t eta_t / 2,
         4 c sqrt(n) sum_{t=1..T} A[t-1])
    and the plain mismatch sum sum_t ||v_t|| / eta_{t+1}.  The bound is the
    terms added left to right.
    """
    horizon = noise_norms.size
    mismatch = float(np.sum(noise_norms / etas[1:horizon + 1])) if horizon else 0.0
    # cumsum adds A[0..T-1] in order, as a running total
    network = float(np.cumsum(steps[:horizon])[-1]) if horizon else 0.0
    terms = (2.0 * consts.r2 / etas[horizon], consts.k * mismatch,
             c * float(etas[:horizon].sum()) / 2.0, 4.0 * c * np.sqrt(n) * network)
    return terms, mismatch


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
                     grad_second_moment=None, steps=None):
    """Evaluate the dynamic regret guarantee as exact sums (see _terms).

    etas must cover rounds 1..T+1; noise_norms holds ||v_t|| for t = 1..T in
    the geometry norm.  e_track is the radius, mismatch and step terms and
    e_net the network term, both at c = L^2.  Entry t-1 (t = 1..T) of
    disagreement_curve bounds max_i ||x[i,t+1] - xbar[t+1]|| by
    L sqrt(n) sum_{tau=0..t} eta_tau sigma2^(t-tau).  grad_second_moment,
    when given, is G^2 from the stochastic oracle and fills the
    expected-regret variant, the same terms at c = G^2.  variation_tuned_value
    is total at the constant tuned_step of C_T = sum_t ||v_t||.  steps,
    when given, is this run's row of _guarantee_steps, which a caller
    evaluating many runs computes for all of them in one pass.
    """
    if not 0 <= sigma2 <= 1:
        raise ValueError("sigma2 must lie in [0, 1]")
    noise_norms = np.asarray(noise_norms, dtype=float)
    horizon = noise_norms.size
    etas = np.asarray(etas, dtype=float)
    if etas.size < horizon + 1:
        raise ValueError("need step sizes through round T+1")
    if not np.all((etas > 0) & np.isfinite(etas)):  # NaN fails etas > 0
        raise ValueError("step sizes must be positive and finite")
    c_t = float(noise_norms.sum())
    if steps is None:
        steps = _guarantee_steps(sigma2, etas[None], [c_t], horizon)[0]
    steps, tuned_steps = steps
    l2 = lipschitz**2
    (radius, mismatch, step, network), mismatch_sum = _terms(
        consts, l2, etas, noise_norms, n, steps)
    e_track = float(radius + mismatch + step)
    stochastic_total = tuned = float("nan")
    if grad_second_moment is not None:
        stochastic_total = float(sum(_terms(consts, float(grad_second_moment), etas,
                                            noise_norms, n, steps)[0]))
    if c_t > 0:
        tuned_etas = np.full(horizon + 1, tuned_step(c_t, sigma2, horizon))
        tuned = float(sum(_terms(consts, l2, tuned_etas, noise_norms, n, tuned_steps)[0]))
    notes = ()
    if sigma2 == 0:
        notes = ("sigma2=0: network term keeps its tau=t-1 contribution by the 0^0=1 convention",)
    return BoundReport(
        e_track=e_track,
        e_net=float(network),
        total=float(e_track + network),
        stochastic_total=stochastic_total,
        disagreement_curve=lipschitz * np.sqrt(n) * steps[1:],
        mismatch_rhs=float(radius + mismatch_sum),
        local_gap_rhs=float(e_track + network / 2.0),
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


def _scalar_lines(report):
    """k=v for each number or string field of report (not None), in declaration order."""
    values = ((f.name, getattr(report, f.name)) for f in fields(report))
    return [f"{k}={csvio.fmt(v)}" for k, v in values if isinstance(v, (int, float, str))]


def write_regret_csv(report, file, comments=()):
    table = np.column_stack([np.arange(1, report.instant.size + 1), report.instant,
                             report.cumulative, report.normalized])
    csvio.write_csv(file, ["t", "instant", "cumulative", "normalized"], table,
                    list(comments) + _scalar_lines(report))


def write_bound_csv(report, file, comments=()):
    lead = list(comments) + _scalar_lines(report) + [f"note={n}" for n in report.notes]
    curve = report.disagreement_curve
    table = np.column_stack([np.arange(1, curve.size + 1), curve])
    csvio.write_csv(file, ["t", "disagreement_bound"], table, lead)

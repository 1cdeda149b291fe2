"""Change of variables between the probability simplex and an angle box.

A point of the n-bin simplex is parametrized by n-1 angles, each in
[0, pi/2]:

    p_1 = cos^2 t_1
    p_i = sin^2 t_1 * ... * sin^2 t_{i-1} * cos^2 t_i      (1 < i < n)
    p_n = sin^2 t_1 * ... * sin^2 t_{n-1}

These are squared spherical coordinates on the unit sphere's positive
orthant, so p_i >= 0 and sum p_i = 1 hold by construction and integrals
over the awkward simplex domain become integrals over a rectangular
box. The Jacobian matrix dp_i/dt_j of the map is lower triangular,
hence its determinant is just the product of the diagonal entries;
log_jacobian evaluates that product in log space.

For a power-product integrand prod p_i^{m_i} the full transformed
integrand (powers times Jacobian) separates into one factor per angle,
K_j; see log_kernel. Each factor integrates to a Beta function on its
own, which is what makes the closed-form moments possible.

angles_to_simplex and log_jacobian accept batches: a leading axis of
angle vectors is mapped elementwise. Both run on one core, _map_rows,
which takes a batch laid out one angle per row and gives the points
and the log-Jacobian from one sin/cos pass, each step a pass over
whole contiguous rows. Its sums over the angles (and Monte Carlo's
over the bins, _log_power_rows) go through _row_sum, which adds whole
rows in the order numpy's np.sum(axis=-1) adds the terms of one point;
that order is what keeps the values bit for bit those of the
row-major formulas. On a tensor grid the map and the kernels factor
into per-axis terms; tensor_grid_blocks builds the grid's points and
log weights from those, block by block.
"""

import math
from functools import reduce

import numpy as np

from .moments import as_exponent_vector

__all__ = [
    "angles_to_simplex",
    "simplex_to_angles",
    "log_jacobian",
    "log_kernel",
]

HALF_PI = math.pi / 2.0
_LN2 = math.log(2.0)


def _check_angle_range(theta):
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    if np.any(theta < 0.0) or np.any(theta > HALF_PI):
        raise ValueError("angles must lie in [0, pi/2]")


def _xlogy(y, x):
    # y * log(x) with the 0 * log(0) = 0 convention: a zero exponent
    # removes the factor entirely, whatever the base. The one home of
    # that rule; quadrature.power_log_integrand uses it too, and
    # _log_power_rows applies it one bin at a time.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = y * np.log(x)
    return np.where(np.asarray(y) == 0.0, 0.0, out)


def _log_power_rows(m, points, terms):
    # m_j ln p_j, one row per bin of angle-major points (n, count), with
    # the 0 * log(0) = 0 rule of _xlogy; returns each point's sum over
    # the bins in np.sum's order, written into terms[0]
    with np.errstate(divide="ignore"):
        for mj, p, t in zip(m, points, terms):
            if mj == 0.0:
                t.fill(0.0)
            else:
                np.log(p, out=t)
                t *= mj
    return _row_sum(terms, terms[0])


def _row_sum(terms, out):
    # out[i] = sum_j terms[j, i] bit for bit as np.sum(terms.T, axis=-1)
    # gives it, from whole contiguous rows. numpy reduces each row of
    # the transpose with its pairwise_sum: below 8 terms one running
    # sum from 0.0; up to 128, eight running sums over the whole blocks
    # of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    # leftovers; above 128, the two halves split at a multiple of 8.
    # The reduction starts from the identity 0.0, which only turns an
    # all -0.0 sum into 0.0, so adding it anywhere in the chain gives
    # the same bits. Overwrites terms; out may be terms[0].
    k = len(terms)
    if k > 128:
        half = k // 2 - k // 2 % 8
        _row_sum(terms[:half], out)
        out += _row_sum(terms[half:], terms[half])
        return out
    if k < 8:
        np.add(0.0, terms[0], out=out)
        for row in terms[1:]:
            out += row
        return out
    whole = k - k % 8
    blocks = terms[:8]
    blocks[0] += 0.0
    for start in range(8, whole, 8):
        blocks += terms[start:start + 8]
    blocks[0::2] += blocks[1::2]
    blocks[0::4] += blocks[2::4]
    np.add(blocks[0], blocks[4], out=out)
    for row in terms[whole:]:
        out += row
    return out


def _map_rows(theta, s, points, logs):
    # The map and the log-Jacobian of a batch laid out one angle per
    # row: theta (n-1, count) is checked and turned into cos^2, s
    # (n-1, count) gets sin^2, points (n, count) gets p_1..p_n one bin
    # per row and logs (count,) the log-Jacobian. Every step is a pass
    # over whole rows; the row sums keep np.sum's order, so the values
    # are those of the row-major formulas bit for bit.
    _check_angle_range(theta)
    d = len(theta)
    np.sin(theta, out=s)
    np.cos(theta, out=theta)
    # sum over i of ln(2 s_i c_i) + 2(n-1-i) ln s_i, with the rows of
    # points as scratch
    work = points[:d]
    np.multiply(2.0, s, out=work)
    work *= theta
    with np.errstate(divide="ignore"):
        np.log(work, out=work)
        _row_sum(work, logs)
        if d > 1:
            # sin t_i has exponent 2(n-1-i); leaving out the last
            # angle's zero term avoids 0 * (-inf) at boundary angles
            terms = work[:-1]
            np.log(s[:-1], out=terms)
            terms *= 2.0 * np.arange(d - 1, 0, -1, dtype=float)[:, None]
            logs += _row_sum(terms, terms[0])
    # p_1 = c_1^2, p_j = s_1^2 ... s_{j-1}^2 c_j^2, p_n = s_1^2 ... s_{n-1}^2
    np.square(s, out=s)
    np.square(theta, out=theta)
    np.copyto(points[1], s[0])
    for j in range(1, d):
        np.multiply(points[j], s[j], out=points[j + 1])
    points[1:-1] *= theta[1:]
    np.copyto(points[0], theta[0])


def angles_to_simplex(theta):
    """Map angles in [0, pi/2]^(n-1) to a point of the n-bin simplex.

    Parameters
    ----------
    theta : array_like, shape (..., n-1)
        One angle vector, or any batch of them along leading axes.

    Returns
    -------
    ndarray, shape (..., n)
        Probability vectors; components are nonnegative and sum to 1
        up to roundoff (no renormalization is applied).
    """
    return _map_and_log_jacobian(theta)[0]


def simplex_to_angles(p):
    """Invert angles_to_simplex for a single simplex point.

    theta_i = arccos(sqrt(p_i / r_i)) where r_i is the mass not yet
    assigned by bins 1..i-1. Once r_i hits zero the remaining angles
    are pi/2 by convention; that keeps the forward map exact (all
    remaining bins get probability zero), so the boundary is not an
    error.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("simplex_to_angles expects a single probability vector")
    if p.size < 2:
        raise ValueError("a simplex point needs at least two bins")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(np.sum(p)) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1 within 1e-12")

    n = p.size
    theta = np.empty(n - 1)
    # unassigned mass as a suffix sum, not 1 minus a prefix sum: the
    # subtraction form cancels catastrophically once the tail is tiny
    # and would cost ~7 digits of the late angles
    remaining = np.cumsum(p[::-1])[::-1]
    for i in range(n - 1):
        if remaining[i] <= 0.0:
            theta[i:] = HALF_PI
            break
        ratio = p[i] / remaining[i]
        # clamp rounding spill just past the ends of [0, 1]
        ratio = min(max(ratio, 0.0), 1.0)
        theta[i] = math.acos(math.sqrt(ratio))
    return theta


def log_jacobian(theta):
    """Return ln of the Jacobian determinant of theta -> (p_1..p_{n-1}).

    Lower triangularity reduces the determinant to the diagonal
    product

        J = prod_{i=1}^{n-1} 2 sin(t_i) cos(t_i) * sin(t_i)^{2(n-1-i)}

    evaluated here as a sum of logs. Returns negative infinity where a
    factor vanishes exactly, which happens at an angle of 0 (sin(0) is
    an exact float zero). At the float pi/2 the cosine is ~6.1e-17
    rather than 0, so the result there is finite but far below any
    interior value.

    Accepts a single angle vector (returns a float) or a batch with
    leading axes (returns an array of that leading shape).
    """
    out = _map_and_log_jacobian(theta)[1]
    if out.ndim == 0:
        return float(out)
    return out


def _map_and_log_jacobian(theta):
    """angles_to_simplex(theta) and log_jacobian(theta) of one batch,
    from one range check and one sin/cos pass.

    The batch is copied to one contiguous row per angle, goes through
    _map_rows, and its points come back one row per point.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim < 1 or theta.shape[-1] < 1:
        raise ValueError("an angle vector needs at least one component (n >= 2 bins)")
    lead, d = theta.shape[:-1], theta.shape[-1]
    rows = np.array(theta.reshape(-1, d).T, order="C")
    points = np.empty((d + 1, rows.shape[1]))
    logs = np.empty(rows.shape[1])
    _map_rows(rows, np.empty_like(rows), points, logs)
    return np.ascontiguousarray(points.T).reshape(lead + (d + 1,)), logs.reshape(lead)


def _map_columns(out, prod, columns, c2, s2):
    # p_j = (product of sin^2 over the axes before j) * cos^2 on axis j,
    # written broadcast over the later axes of out; returns the product
    # of sin^2 over every axis filled in
    for j in columns:
        col = np.multiply.outer(prod, c2)
        out[..., j] = col.reshape(col.shape + (1,) * (out.ndim - 1 - col.ndim))
        prod = np.multiply.outer(prod, s2)
    return prod


def tensor_grid_blocks(axis, axis_logs, chunk):
    """Points and log weights of the tensor grid axis^(n-1), in blocks.

    Every angle takes its nodes from the 1-D axis, so the points are the
    index tuples (i_1, ..., i_{n-1}) in C order. axis_logs holds one
    array of per-node log factors per angle (for prod p^m dp, log w +
    log K_j: the Jacobian is the m = 0 kernel); a point's log weight is
    their sum over its indices. Yields (points, logs) per block: points
    as angles_to_simplex gives them, shape (count, n), and logs a fresh
    array of count log weights. Given the factors of the first r angles
    of a longer map only, the points are (count, r+1): p_1..p_r and the
    mass left for the later bins.

    The map factors into per-axis terms too (sin^2 t, cos^2 t),
    computed once on the axis after one range check. The leading
    indices are flattened into rows, with their partial sums and
    products kept per row; a block is a run of whole rows times every
    trailing index, filled in by outer sums and products. The trailing
    axes are as many as fit in a chunk, but at least one when n > 2, so
    a block exceeds chunk points only if one axis does.

    Sums and products run left to right over the angles: the map equals
    angles_to_simplex bit for bit, and each log weight is the
    left-to-right sum of its per-axis terms.
    """
    axis = np.asarray(axis, dtype=float)
    _check_angle_range(axis)
    k = axis.size
    d = len(axis_logs)
    tail = min(1, d - 1)
    while tail < d - 1 and k ** (tail + 1) <= chunk:
        tail += 1
    head = d - tail
    step = max(chunk // k ** tail, 1)
    s2 = np.square(np.sin(axis))
    c2 = np.square(np.cos(axis))

    # per row: p_1..p_head, the product of sin^2 over the head axes and
    # the head part of the log weight; reduce(np.add.outer, ...) adds
    # left to right and gives each array its own axis. Starting from
    # 0.0 keeps a block's logs off the caller's arrays when n = 2.
    head_p = np.empty((k,) * head + (head,))
    head_prod = _map_columns(head_p, 1.0, range(head), c2, s2).ravel()
    head_p = head_p.reshape(-1, head)
    head_logs = reduce(np.add.outer, axis_logs[:head], 0.0).ravel()

    for start in range(0, k ** head, step):
        rows = slice(start, start + step)
        count = head_prod[rows].size
        points = np.empty((count,) + (k,) * tail + (d + 1,))
        points[..., :head] = head_p[rows].reshape((count,) + (1,) * tail + (head,))
        points[..., d] = _map_columns(points, head_prod[rows], range(head, d), c2, s2)
        logs = reduce(np.add.outer, axis_logs[head:], head_logs[rows])
        yield points.reshape(-1, d + 1), logs.ravel()


def log_kernel(j, n, m, theta_j):
    """Log of the separated per-angle factor K_j at angle theta_j.

    K_j(t) = 2 cos^{2(m_j+1)-1}(t) sin^{2 S_j - 1}(t) with
    S_j = sum_{l=j+1}^{n} (m_l + 1). The product of K_j over
    j = 1..n-1 equals prod p_i^{m_i} times the Jacobian, so each angle
    integrates independently:

        int_0^{pi/2} K_j(t) dt = B(m_j + 1, S_j)

    and the product of those Beta values telescopes to the closed-form
    normalization integral.

    Parameters
    ----------
    j : int
        1-based angle index, 1 <= j <= n-1.
    n : int
        Number of bins; must equal len(m).
    m : array_like
        Exponent vector, each entry > -1.
    theta_j : float or array_like
        Angle(s) in [0, pi/2].

    Returns
    -------
    float or ndarray
        ln K_j; -inf at boundary zeros of the kernel, +inf where a
        negative power (m_j < -1/2 at the cos end, say) diverges.
    """
    m = np.asarray(as_exponent_vector(m))
    if n != m.size:
        raise ValueError(f"n={n} does not match len(m)={m.size}")
    if not 1 <= j <= n - 1:
        raise IndexError(f"kernel index must satisfy 1 <= j <= n-1, got j={j}")
    t = np.asarray(theta_j, dtype=float)
    _check_angle_range(t)

    cos_exp = 2.0 * (m[j - 1] + 1.0) - 1.0
    sin_exp = 2.0 * float(np.sum(m[j:] + 1.0)) - 1.0
    out = _LN2 + _xlogy(cos_exp, np.cos(t)) + _xlogy(sin_exp, np.sin(t))
    if out.ndim == 0:
        return float(out)
    return out

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
whole contiguous rows. The power terms m_j ln p_j of Monte Carlo,
quadrature.power_log_integrand and log_kernel have one rule,
_log_power_rows, over bins laid out one per row. Its sums and those
of _map_rows go through _row_sum, which adds whole rows in the order
numpy's np.sum(axis=-1) adds the terms of one point; that order is
what keeps the values bit for bit those of the row-major formulas.
On a tensor grid the map and the kernels factor into per-axis terms;
tensor_grid_blocks builds the grid's points and log weights from
those, block by block.
"""

import math

import numpy as np

from .moments import _bin_index, as_exponent_vector

__all__ = [
    "angles_to_simplex",
    "simplex_to_angles",
    "log_jacobian",
    "log_kernel",
]

HALF_PI = math.pi / 2.0


def _check_angle_range(theta):
    # a NaN propagates through both; the 0.0 lets an empty array pass
    low, high = np.min(theta, initial=0.0), np.max(theta, initial=0.0)
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("angles must be finite")
    if low < 0.0 or high > HALF_PI:
        raise ValueError("angles must lie in [0, pi/2]")


def _log_power_rows(m, points, terms=None):
    # sum_j m_j ln p_j with 0 * log(0) = 0, the one home of that rule: a
    # zero exponent removes the factor, whatever the base. points has
    # one bin per row on its first axis, any shape after it; the sums
    # have that shape (a numpy float for ()), in np.sum's order, in
    # terms[0] of the (n, count) scratch terms, or of a fresh one
    rows = points.reshape(len(points), -1)
    terms = np.empty(rows.shape) if terms is None else terms
    with np.errstate(divide="ignore", invalid="ignore"):
        for mj, p, t in zip(m, rows, terms):
            if mj == 0.0:
                t.fill(0.0)
            else:
                np.log(p, out=t)
                t *= mj
    return _row_sum(terms, terms[0]).reshape(points.shape[1:])[()]


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
    # row: theta (n-1, count), in range, is turned into cos^2, s
    # (n-1, count) gets sin^2, points (n, count) gets p_1..p_n one bin
    # per row and logs (count,) the log-Jacobian. Every step is a pass
    # over whole rows; the row sums keep np.sum's order, so the values
    # are those of the row-major formulas bit for bit.
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
    _check_angle_range(theta)
    lead, d = theta.shape[:-1], theta.shape[-1]
    rows = np.array(theta.reshape(-1, d).T, order="C")
    points = np.empty((d + 1, rows.shape[1]))
    logs = np.empty(rows.shape[1])
    _map_rows(rows, np.empty_like(rows), points, logs)
    return np.ascontiguousarray(points.T).reshape(lead + (d + 1,)), logs.reshape(lead)


def _rows_and_tail(k, d, size):
    # the trailing axes of a run of at most size points on k^d, as many
    # as fit but at least one when d > 1, and the whole rows of the
    # leading axes per run: over size only if one axis is
    tail = int(d > 1)
    while tail < d - 1 and k ** (tail + 1) <= size:
        tail += 1
    return tail, max(size // k ** tail, 1)


def tensor_grid_blocks(axis, axis_logs, block):
    """Points and log weights of the tensor grid axis^(n-1), in blocks.

    Every angle takes its nodes from the 1-D axis, so the points are the
    index tuples (i_1, ..., i_{n-1}) in C order. axis_logs holds one
    array of per-node log factors per angle (for prod p^m dp, log w +
    log K_j: the Jacobian is the m = 0 kernel); a point's log weight is
    their sum over its indices. Yields (points, logs) per block, in C
    order: points as angles_to_simplex gives them, shape (count, n),
    and logs a fresh array of their log weights. The points are a
    C-contiguous view of one buffer that every block reuses, valid
    until the next block is requested. Given the factors of the first r
    angles of a longer map only, the points are (count, r+1): p_1..p_r
    and the mass left for the later bins; at r = 0 that is the one
    point [[1.0]], of log weight 0.0.

    The map factors into per-axis terms too (sin^2 t, cos^2 t),
    computed once on the axis after one range check. A block is a run
    of whole rows in C order, a row being one index tuple of the
    leading axes with every index of the trailing ones. The trailing
    axes are as many as fit in a block, but at least one when n > 2, so
    a block exceeds its size only if one axis does. A block is built in
    one pass over its angles: a leading angle's factors are gathered
    per row, a trailing angle's are broadcast along its own axis of the
    block, and each angle writes its p_j and multiplies its sin^2 into
    the running product and adds its log factor to the running sum.

    Sums and products run left to right over the angles, whatever the
    split: the map equals angles_to_simplex bit for bit, and each log
    weight is the left-to-right sum of its per-axis terms.
    """
    axis = np.asarray(axis, dtype=float)
    _check_angle_range(axis)
    k, d = axis.size, len(axis_logs)
    s2 = np.square(np.sin(axis))
    c2 = np.square(np.cos(axis))
    tail, step = _rows_and_tail(k, d, block)
    lead, width, tile = d - tail, k ** tail, (k,) * tail
    rows = k ** lead
    # one point buffer for every block, a short block its leading part
    buffer = np.empty(min(step, rows) * width * (d + 1))
    for first in range(0, rows, step):
        flat = np.arange(first, min(first + step, rows))
        c = flat.size
        points = buffer[: c * width * (d + 1)].reshape((c, *tile, d + 1))
        prod, logs = 1.0, 0.0
        for j in range(d):
            # a leading angle's nodes per row, shape (c, 1, ..., 1); a
            # trailing angle's along its own axis, (k, 1, ..., 1) broadcast
            if j < lead:
                at = (flat // k ** (lead - 1 - j) % k).reshape((c,) + (1,) * tail)
            else:
                at = np.arange(k).reshape((k,) + (1,) * (d - 1 - j))
            points[..., j] = prod * c2[at]
            prod = prod * s2[at]
            logs = logs + axis_logs[j][at]
        points[..., d] = prod
        del prod  # block-sized: freed before the caller gets the block
        yield points.reshape(-1, d + 1), np.ravel(logs)


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

    Raises
    ------
    ValueError
        If j is not a whole number, or m, n or an angle is malformed.
    IndexError
        If j is a whole number outside 1..n-1.
    OverflowError
        If an exponent 2(m_j+1)-1 or 2 S_j - 1 overflows the doubles.
    """
    m = np.asarray(as_exponent_vector(m))
    if n != m.size:
        raise ValueError(f"n={n} does not match len(m)={m.size}")
    j0 = _bin_index(j, n - 1, "kernel index")
    t = np.asarray(theta_j, dtype=float)
    _check_angle_range(t)
    out = next(_log_kernels(m, t, [j0]))
    return float(out) if np.ndim(out) == 0 else out


def _log_kernels(m, t, axes):
    # ln K_j at the angles t for each 0-based j in axes, m and t checked,
    # from one cos and sin pass: 2^1 cos^a t sin^b t, terms in that order
    bases = np.array([np.full(t.shape, 2.0), np.cos(t), np.sin(t)])
    for j in axes:
        with np.errstate(over="ignore"):  # refused below, naming the bin
            a, b = 2.0 * (m[j] + 1.0) - 1.0, 2.0 * float(np.sum(m[j + 1:] + 1.0)) - 1.0
        if not (math.isfinite(a) and math.isfinite(b)):
            raise OverflowError(
                f"kernel exponents {a} and {b} of bin {j + 1} are not finite")
        yield _log_power_rows((1.0, a, b), bases)

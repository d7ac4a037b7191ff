"""Independent oracles used by the test suite.

Everything here recomputes expected values through a different route than
the library under test: brute-force grids, finite differences, literal
re-summation, plain subgradient descent.  None of it imports solver
internals.
"""

import itertools

import numpy as np


def fd_gradient(fun, x, step=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2 * step)
    return grad


def fd_jacobian(vec_fun, x, step=1e-5):
    """Central finite differences of a vector function, column by column."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((vec_fun(x + e) - vec_fun(x - e)) / (2 * step))
    return np.column_stack(cols)


def logistic_objective(X, y, w, ridge):
    margins = y * (X.T @ w)
    return float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * ridge * (w @ w))


def grid_search_logistic_2d(X, y, ridge, lo=-3.0, hi=3.0, fine_step=1e-3):
    """Two-stage exhaustive grid minimiser of the 2-D logistic objective.

    A coarse pass over [lo, hi]^2 locates the basin, then a fine pass at
    `fine_step` resolves the minimiser.  The refinement window comes from
    the coarse argmin only, never from any solver output.
    """
    coarse_step = 4e-3

    def scan(x0, x1, y0, y1, step):
        g0 = np.arange(x0, x1 + step / 2, step)
        g1 = np.arange(y0, y1 + step / 2, step)
        best_val, best_w = np.inf, None
        for a in g0:
            ws = np.column_stack([np.full(g1.size, a), g1])
            margins = y[None, :] * (ws @ X)
            vals = np.mean(np.logaddexp(0.0, -margins), axis=1)
            vals += 0.5 * ridge * np.sum(ws ** 2, axis=1)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val, best_w = float(vals[j]), ws[j]
        return best_w, best_val

    w_coarse, _ = scan(lo, hi, lo, hi, coarse_step)
    pad = 2 * coarse_step
    w_fine, val = scan(w_coarse[0] - pad, w_coarse[0] + pad,
                       w_coarse[1] - pad, w_coarse[1] + pad, fine_step)
    return w_fine, val


def subgradient_descent(objective_grad, l1_weight, x0, n_iter, step_scale=0.05):
    """Plain projected-free subgradient method with 1/sqrt(k) steps.

    Returns the best iterate seen.  `objective_grad(x)` must return
    (smooth value, smooth gradient); the l1 part is handled by sign
    subgradients.
    """
    x = np.asarray(x0, dtype=float).copy()
    best = x.copy()
    f0, _ = objective_grad(x)
    best_val = f0 + l1_weight * np.abs(x).sum()
    for k in range(1, n_iter + 1):
        _, g = objective_grad(x)
        sub = g + l1_weight * np.sign(x)
        x = x - step_scale / np.sqrt(k) * sub
        val, _ = objective_grad(x)
        val += l1_weight * np.abs(x).sum()
        if val < best_val:
            best_val, best = val, x.copy()
    return best, best_val


_GRID_CACHE = {}


def simplex_grid(n_parts, resolution):
    """All points of the probability simplex whose coordinates are
    multiples of `resolution` (compositions of 1/resolution); cached and
    read-only since the grid is instance-independent."""
    key = (n_parts, resolution)
    if key in _GRID_CACHE:
        return _GRID_CACHE[key]
    steps = int(round(1.0 / resolution))
    out = []
    for cuts in itertools.combinations(range(steps + n_parts - 1), n_parts - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(steps + n_parts - 2 - prev)
        out.append(parts)
    grid = np.array(out, dtype=float) * resolution
    grid.setflags(write=False)
    _GRID_CACHE[key] = grid
    return grid


def grid_search_assignment(cost, lam2, alpha, resolution):
    """Exhaustive minimiser of lam2 * <cost, z> + alpha * ||z||_1 over the
    discretised simplex.

    The l1 term is constant on the simplex, so any grid containing the
    vertices (every grid does) attains the same optimum as a finer one;
    the resolution only matters for tie-breaking.
    """
    pts = simplex_grid(len(cost), resolution)
    vals = lam2 * (pts @ np.asarray(cost, dtype=float)) + alpha * np.abs(pts).sum(axis=1)
    j = int(np.argmin(vals))
    return pts[j], float(vals[j])


def random_task(rng, d=6, n=12, kind="squared"):
    """Seeded random task for property tests (import-cycle-free helper)."""
    from lifelong.tasks import TaskData

    X = rng.normal(size=(d, n))
    if kind == "squared":
        y = rng.normal(size=n)
    else:
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return TaskData(features=X, targets=y, loss_kind=kind, task_id="rand")

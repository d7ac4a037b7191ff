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


def decoder_statistics(arrivals, lambda2):
    """The decoder statistics (A, b) in the identity basis, re-summed with
    literal Kronecker products over `arrivals`, each (s, w, omega, reps)
    with reps a sequence of (s_k, H_k, z_k).  With vec(D) column-major, an
    arrival adds kron(s s', omega) + lambda2 z_k kron((s_k - s)(s_k - s)',
    H_k) to A and kron(s, omega w) to b, ELLA's accumulate-then-refit
    terms (Ruvolo & Eaton, ICML 2013) with the representative couplings."""
    A = b = 0.0
    for s, w, omega, reps in arrivals:
        A = A + np.kron(np.outer(s, s), omega)
        for s_k, H_k, z_k in reps:
            A = A + lambda2 * z_k * np.kron(np.outer(s_k - s, s_k - s), H_k)
        b = b + np.kron(s, omega @ w)
    return A, b


def pairs(n):
    """The block pairs (i, j), i <= j < n, in j-major order: (0, 0), (0, 1),
    (1, 1), (0, 2), ...; the pairs of the first m block rows come first."""
    return [(i, j) for j in range(n) for i in range(j + 1)]


def pair_blocks(full, d):
    """The d x d blocks (i, j), i <= j in `pairs(n)` order, of the
    (dn) x (dn) matrix `full`."""
    n = full.shape[0] // d
    return np.array([full[i * d:(i + 1) * d, j * d:(j + 1) * d]
                     for i, j in pairs(n)]).reshape(-1, d, d)


def full_from_pairs(blocks, n):
    """The (dn) x (dn) matrix whose blocks (i, j) and (j, i) both hold the
    pair block of i <= j, at its position in `pairs(n)`."""
    d = blocks.shape[-1]
    full = np.zeros((n * d, n * d))
    for block, (i, j) in zip(blocks, pairs(n)):
        full[i * d:(i + 1) * d, j * d:(j + 1) * d] = block
        full[j * d:(j + 1) * d, i * d:(i + 1) * d] = block
    return full


def in_basis(A, b, basis):
    """The pair blocks and right-hand side of (A, b) projected onto the
    orthonormal code basis Q (p x r): (Q (x) I_d)' A (Q (x) I_d), as its
    r(r+1)/2 pair blocks, and (Q (x) I_d)' b, of dr entries."""
    p, r = basis.shape
    d = b.size // p
    P = np.kron(basis, np.eye(d))
    return pair_blocks(P.T @ A @ P, d), P.T @ b


def ridge_toward(pairs, lam, centre):
    """The minimiser over w of |X'w - y|^2 / (2N) + lam/2 |w - centre|^2
    over the pooled samples of `pairs`, each (X, d x n; y, n), N of them
    in all."""
    N = sum(y.size for _, y in pairs)
    A = sum(X @ X.T for X, _ in pairs) / N
    b = sum(X @ y for X, y in pairs) / N
    return np.linalg.solve(A + lam * np.eye(centre.size), b + lam * centre)


def kmeans(points, k, restarts=20, seed=0):
    """Labels of Lloyd's k-means on the rows of `points`, best of `restarts`
    starts at k distinct rows drawn with `seed`: the run with the lowest
    within-cluster sum of squares.  An emptied cluster keeps its centre."""
    rng = np.random.default_rng(seed)
    best, best_labels = np.inf, None
    for _ in range(restarts):
        centres = points[rng.choice(len(points), k, replace=False)]
        labels = None
        while True:
            new = np.argmin(((points[:, None] - centres[None]) ** 2).sum(-1), axis=1)
            if labels is not None and np.array_equal(new, labels):
                break
            labels = new
            centres = np.array([points[labels == j].mean(0) if np.any(labels == j)
                                else centres[j] for j in range(k)])
        inertia = float(((points - centres[labels]) ** 2).sum())
        if inertia < best:
            best, best_labels = inertia, labels
    return best_labels


def batch_clustered_mtl(pairs, k, stl_ridge, lam=0.3, restarts=20):
    """Batch clustered multi-task reference (Evgeniou & Pontil, KDD 2004;
    Jacob, Bach & Vert, NIPS 2008) over all tasks `pairs` at once, each
    (X, y): k-means on the single-task ridge fits at `stl_ridge`, one
    pooled centre per cluster (least squares, stabilised by a 1e-4 ridge),
    then each task's ridge fit toward its centre with weight `lam`.
    Returns the task weights in the order of `pairs`."""
    d = pairs[0][0].shape[0]
    stl = np.array([ridge_toward([pair], stl_ridge, np.zeros(d)) for pair in pairs])
    labels = kmeans(stl, k, restarts)
    centres = [ridge_toward([pair for pair, j in zip(pairs, labels) if j == c], 1e-4,
                            np.zeros(d)) for c in range(k)]
    return [ridge_toward([pair], lam, centres[j]) for pair, j in zip(pairs, labels)]

"""The two knowledge libraries and their closed-form online updates.

The feature-learning library is an encoder/decoder pair over task
parameters.  Both halves are refit from running sufficient statistics
each time a task arrives: the decoder from a Kronecker-structured normal
system accumulated in (acc_A, acc_b), the encoder from per-row least
squares accumulated in (acc_M, acc_C).  Columns are kept inside the unit
l2 ball by rescaling after each solve.

Every term of the decoder statistics is kron(W, H) with W built from
codes (s s' and the representative differences), so they live in
span(codes) (x) R^d, and on the rest of R^(dp) the decoder system is
mu I with a zero right-hand side.  The library therefore holds an
orthonormal basis Q (p x r) of every code that has entered the
statistics, grown by one Gram-Schmidt direction per new vector, and
keeps (acc_A, acc_b) in its coordinates, sized by its rank r: a
direction's statistics start at exactly zero when it joins.  A refit
solves the (dr) x (dr) system for Y (d x r) and sets D = Y Q'.

acc_A is a sum of kron(W, H) over symmetric W and d x d Hessians H, so
its d x d block (j, i) equals block (i, j), and each block is symmetric
when every H is, as the refit requires bit for bit.  It is held as
`acc_A_pairs`, the r(r+1)/2 blocks i <= j in j-major order, to which a
new direction only appends, and each decoder system's upper triangle is
assembled from them by block columns into a prefix of one (dp) x (dp)
buffer per thread that is reused from refit to refit.  There it is
factored in place as U'U by block rows; only the upper triangle is read.

The model library is an append-only tuple of representative task ids, in
admission order; a representative's code is its task's code, which never
changes after learning, so reverse transfer flows only through the
decoder refits.

The checkpoint format of the libraries, its validation and its bytes are
in `engine`.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assignment import Assignment


@dataclass(frozen=True)
class FeatureLibrary:
    """Encoder/decoder pair plus the accumulators backing their refits.

    The decoder statistics, sums of kron(W, H) and of s (x) (H w), are held
    only in the coordinates of `basis`, an orthonormal Q (p x r) whose span
    holds every code that entered them: they are (Q (x) I_d) A (Q (x) I_d)'
    and (Q (x) I_d) b for the (dr) x (dr) A and the dr-vector b held in
    `acc_A_pairs` and `acc_b_coords`.  `acc_A_pairs[j (j + 1) / 2 + i]` is
    the d x d block (i, j) of A for the pair i <= j, the sum of W[i, j] H
    over the terms kron(W, H) in coordinates, and equals block (j, i),
    since every W is symmetric; in this j-major order the pairs of the
    first r' directions are a prefix.
    """

    decoder: np.ndarray       # d x p
    encoder: np.ndarray       # p x d
    basis: np.ndarray         # p x r, orthonormal columns
    acc_A_pairs: np.ndarray   # r(r+1)/2 x d x d, in basis coordinates
    acc_b_coords: np.ndarray  # dr, in basis coordinates
    acc_M: np.ndarray         # p x d
    acc_C: np.ndarray         # d x d
    tasks_seen: int

    @property
    def d(self) -> int:
        return self.decoder.shape[0]

    @property
    def p(self) -> int:
        return self.decoder.shape[1]


def init_libraries(d: int, p: int, seed: int) -> FeatureLibrary:
    """Gaussian encoder/decoder with unit-norm columns, zeroed accumulators."""
    if not (1 <= p <= d):
        raise ValueError(f"need 1 <= p <= d, got p={p}, d={d}")
    rng = np.random.default_rng(seed)
    decoder = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, p))
    decoder /= np.linalg.norm(decoder, axis=0, keepdims=True)
    encoder = rng.normal(0.0, 1.0 / np.sqrt(d), size=(p, d))
    encoder /= np.linalg.norm(encoder, axis=0, keepdims=True)
    return FeatureLibrary(
        decoder=decoder,
        encoder=encoder,
        basis=np.zeros((p, 0)),
        acc_A_pairs=np.zeros((0, d, d)),
        acc_b_coords=np.zeros(0),
        acc_M=np.zeros((p, d)),
        acc_C=np.zeros((d, d)),
        tasks_seen=0,
    )


def _symmetric_bits(a: np.ndarray) -> bool:
    """Whether each trailing square matrix of `a` equals its transpose bit
    for bit, so that -0.0 and +0.0 differ; the checkpoint's packing of
    pair blocks in `engine` relies on it too."""
    bits = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    return np.array_equal(bits, bits.swapaxes(-1, -2))


def _clip_columns(mat: np.ndarray) -> np.ndarray:
    """Rescale columns with norm > 1 back onto the unit sphere."""
    norms = np.linalg.norm(mat, axis=0)
    scale = np.where(norms > 1.0, norms, 1.0)
    return mat / scale


# rows per diagonal block of the Cholesky factorisation and the triangular
# substitutions, and the most rows a diagonal block's inverse takes from
# np.linalg.inv
_SUBST_BLOCK = 48
_INVERSE_LEAF = 32


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular `lower`, built recursively as
    [[X11, 0], [-X22 L21 X11, X22]] with np.linalg.inv only at leaves of at
    most `_INVERSE_LEAF` rows; about an eighth of the flops of a general LU
    inverse of the whole block."""
    n = lower.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(lower)
    h = n // 2
    x = np.zeros((n, n))
    x[:h, :h] = _lower_inverse(lower[:h, :h])
    x[h:, h:] = _lower_inverse(lower[h:, h:])
    x[h:, :h] = -(x[h:, h:] @ (lower[h:, :h] @ x[:h, :h]))
    return x


def _cholesky_in_place(a: np.ndarray) -> list[np.ndarray]:
    """Overwrite the upper triangle of the symmetric matrix `a` with U, the
    Cholesky factor with a = U' U, zero the strict lower triangle of its
    diagonal blocks and leave the rest of the lower triangle stale.
    Returns, in order, the inverses (U_ii')^-1 of the diagonal blocks
    transposed, which are lower triangular.

    Blocked by block rows: each block row first subtracts the product of
    the rows already factored, a[blk, i0:] -= U[:i0, blk]' U[:i0, i0:],
    whose rows are contiguous like those of its destination; then its
    diagonal block goes through np.linalg.cholesky (given the block
    transposed, so that it reads only the upper triangle), and the row
    strip to its right is multiplied by (U_ii')^-1.  A product with the
    explicit inverse runs about 1.6 times as fast as np.linalg.solve with
    the strip as right-hand side.  Only the upper triangle is ever read,
    and nothing of the matrix's size is allocated.  Raises
    np.linalg.LinAlgError when a diagonal block is not positive definite.
    """
    n = a.shape[0]
    inverses = []
    for i0 in range(0, n, _SUBST_BLOCK):
        blk = slice(i0, min(i0 + _SUBST_BLOCK, n))
        a[blk, i0:] -= a[:i0, blk].T @ a[:i0, i0:]
        lower = np.linalg.cholesky(a[blk, blk].T)
        a[blk, blk] = lower.T
        inverses.append(_lower_inverse(lower))
        a[blk, blk.stop:] = inverses[-1] @ a[blk, blk.stop:]
    return inverses


def _substitute(factor: np.ndarray, inverses: Sequence[np.ndarray], rhs: np.ndarray,
                lower: bool) -> np.ndarray:
    """Blocked forward (U' x = rhs, `lower`) or back (U x = rhs)
    substitution with the factor and diagonal-block inverses that
    `_cholesky_in_place` left; only U, the upper triangle, is read, and the
    diagonal blocks only through their inverses.

    Off the diagonal each block subtracts the product with the part of x
    already solved: the column strip of U above the block, transposed, on
    the way forward and the row strip to its right on the way back.  On
    the diagonal it multiplies by the block's inverse.  `rhs` may be a
    vector or a matrix.
    """
    n = factor.shape[0]
    x = np.array(rhs, dtype=float)
    blocks = list(zip(range(0, n, _SUBST_BLOCK), inverses))
    for i0, inv in (blocks if lower else reversed(blocks)):
        blk = slice(i0, min(i0 + _SUBST_BLOCK, n))
        if lower:
            x[blk] -= factor[:i0, blk].T @ x[:i0]
            x[blk] = inv @ x[blk]
        else:
            x[blk] -= factor[blk, blk.stop:] @ x[blk.stop:]
            x[blk] = inv.T @ x[blk]
    return x


def _solve_spd(system: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the symmetric PSD library system with one Cholesky factorisation
    U' U and two blocked triangular substitutions; a failed factorisation
    is the singularity signal for the mu = 0 case.  Only the upper triangle
    of `system` is read, and `system` is a temporary the caller owns: it is
    factored in place and left holding U."""
    try:
        inverses = _cholesky_in_place(system)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"{what} system is singular; rerun with ridge_mu > 0"
        ) from None
    return _substitute(system, inverses, _substitute(system, inverses, rhs, lower=True),
                       lower=False)


_workspace = threading.local()


def _system_buffer(n: int) -> np.ndarray:
    """This thread's n x n work matrix for assembling and factoring one
    decoder system, allocated again only when n changes.

    Every refit writes the upper triangle before the factorisation reads
    it, so nothing of one refit's system reaches the next, and a thread of
    its own keeps concurrent refits apart.
    """
    buf = getattr(_workspace, "system", None)
    if buf is None or buf.shape[0] != n:
        buf = _workspace.system = np.zeros((n, n))
    return buf


def _decoder_terms(s_t: np.ndarray, omega: np.ndarray,
                   reps_used: Sequence[tuple[np.ndarray, np.ndarray, float]],
                   lambda2: float) -> np.ndarray:
    """One task's statistics as the sum of kron(W_k, H_k), returned as the
    r(r+1)/2 x d x d pair blocks sum_k W_k[i, j] H_k in j-major order, r
    the length of the codes.

    Column-major vectorisation throughout: vec(Omega D s s') =
    (s s' (x) Omega) vec(D), so the task adds s s' (x) Omega plus the
    weighted representative-difference terms
    lambda2 z_k (s_k - s)(s_k - s)' (x) Omega_k over `reps_used`; the
    matching acc_b contribution is vec(Omega w s') = s (x) (Omega w).  The
    weights of the terms that share one Hessian array are summed first, so
    squared loss, whose representatives all carry the task's Omega, adds
    one outer product of pair weights and Hessian.  Each Hessian of its own
    is added block by block, elementwise: entry (a, b) of a block and its
    mirror (b, a) come from the same roundings of the same operands, so the
    blocks of Hessians symmetric bit for bit are too (a matrix product of
    the stacked Hessians can round the two one ulp apart), and no temporary
    of the blocks' size is made.
    """
    groups = {id(omega): [omega, np.outer(s_t, s_t)]}
    for s_k, omega_k, z_k in reps_used:
        diff = s_k - s_t
        group = groups.setdefault(id(omega_k), [omega_k, 0.0])
        group[1] = group[1] + lambda2 * z_k * np.outer(diff, diff)
    r, d = s_t.shape[0], omega.shape[0]
    jl, il = np.tril_indices(r)
    hessians = np.stack([h for h, _ in groups.values()]).reshape(-1, d * d)
    pair_weights = np.stack([w for _, w in groups.values()])[:, il, jl]
    blocks = np.einsum("i,j->ij", pair_weights[0], hessians[0])
    for weights, hessian in zip(pair_weights[1:], hessians[1:]):
        for k, weight in enumerate(weights):
            blocks[k] += weight * hessian
    return blocks.reshape(-1, d, d)


# residuals of at most this many machine epsilons times p times the
# vector's norm are round-off; about 3.6e-14 relative at p = 20
_SPAN_ROUNDOFF = 8 * np.finfo(float).eps


def _grow_basis(basis: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """`basis` with one orthonormal column more for each of `vectors` that
    lies outside its span, taken in order.

    A vector v is orthogonalised against the columns by classical
    Gram-Schmidt applied twice, which leaves the columns orthogonal to
    round-off (Giraud et al., "Rounding error analysis of the classical
    Gram-Schmidt orthogonalization process", 2005); its residual joins,
    normalised, when it exceeds `_SPAN_ROUNDOFF` p ||v||, the round-off of
    projecting v onto at most p directions.  A smaller residual is that
    round-off, not a direction, and the zero vector never joins.
    """
    p = basis.shape[0]
    for v in vectors:
        if basis.shape[1] == p:
            break
        u = v - basis @ (basis.T @ v)
        u -= basis @ (basis.T @ u)
        norm = np.linalg.norm(u)
        if norm > _SPAN_ROUNDOFF * p * np.linalg.norm(v):
            basis = np.column_stack([basis, u / norm])
    return basis


def update_decoder(lib: FeatureLibrary, s_t: np.ndarray, omega: np.ndarray,
                   reps_used: Sequence[tuple[np.ndarray, np.ndarray, float]],
                   lambda2: float, w_t: np.ndarray,
                   ridge_mu: float = 1e-6) -> FeatureLibrary:
    """Fold one task into the decoder statistics and refit the decoder.

    Solves (acc_A / T + mu I) vec(D) = acc_b / T with T counting this task,
    then clips columns to the unit ball.  `omega` and the representative
    Hessians whose terms enter must equal their transposes bit for bit, as
    `tasks.hessian_at` makes them; any other raises ValueError, so that the
    pair blocks are symmetric and the packed checkpoint holds them exactly.
    The basis first grows by the task's code and each representative code
    whose term enters the statistics (lambda2 > 0 and z_k != 0), where they
    lie outside it.  The task's terms over the r(r+1)/2 pairs of the grown
    basis, in its coordinates, take in the old statistics, their prefix.
    The upper triangle of the (dr) x (dr) system is written by block
    columns, scaled by 1/T, into a prefix of this thread's reused
    (dp) x (dp) buffer and factored there in place; its solution Y (d x r)
    gives D = Y Q'.  On the complement of the basis the system is mu I
    with a zero right-hand side, so this is the solution of the full
    system, and at mu = 0 with r < p the full system is singular.
    `tasks_seen` is left unchanged; the caller bumps it once per task after
    both library updates.
    """
    d, p = lib.d, lib.p
    if s_t.shape != (p,) or w_t.shape != (d,):
        raise ValueError("task quantities do not match the library dimensions")
    reps_used = [rep for rep in reps_used if lambda2 > 0 and rep[2] != 0.0]
    if not all(h.shape == (d, d) and _symmetric_bits(h)
               for h in [omega] + [omega_k for _, omega_k, _ in reps_used]):
        raise ValueError("every Hessian must be d x d and symmetric bit for bit")
    basis = _grow_basis(lib.basis, [s_t] + [s_k for s_k, _, _ in reps_used])
    r = basis.shape[1]
    if ridge_mu == 0.0 and r < p:
        raise np.linalg.LinAlgError(
            f"decoder system is singular off the {r}-dimensional span of the codes; "
            f"rerun with ridge_mu > 0")

    c_t = s_t @ basis
    acc_A_pairs = _decoder_terms(c_t, omega, [(s_k @ basis, omega_k, z_k)
                                              for s_k, omega_k, z_k in reps_used], lambda2)
    acc_b_coords = np.kron(c_t, omega @ w_t)
    # the old statistics are the leading pairs and entries; the rest are the
    # new directions', which this task's terms start
    acc_A_pairs[:len(lib.acc_A_pairs)] += lib.acc_A_pairs
    acc_b_coords[:len(lib.acc_b_coords)] += lib.acc_b_coords
    T = lib.tasks_seen + 1
    n = d * r
    system = _system_buffer(d * p).reshape(-1)[:n * n].reshape(n, n)
    # block column j holds the pairs (i <= j) above and on the diagonal,
    # the j + 1 contiguous in j-major order from j (j + 1) / 2 on
    rows = system.reshape(r, d, r, d)
    for j in range(r):
        k = j * (j + 1) // 2
        np.multiply(acc_A_pairs[k:k + j + 1], 1.0 / T, out=rows[:j + 1, :, j, :])
    system.flat[::n + 1] += ridge_mu
    y = _solve_spd(system, acc_b_coords / T, "decoder")
    decoder = _clip_columns(y.reshape(r, d).T @ basis.T)
    return dataclasses.replace(lib, decoder=decoder, basis=basis, acc_A_pairs=acc_A_pairs,
                               acc_b_coords=acc_b_coords)


def update_encoder(lib: FeatureLibrary, s_t: np.ndarray, w_t: np.ndarray,
                   phi_inverse: Callable[[np.ndarray], np.ndarray],
                   ridge_mu: float = 1e-6) -> FeatureLibrary:
    """Fold one task into the encoder statistics and refit the encoder.

    Solves L (acc_C / T + mu I) = acc_M / T row-wise with T counting this
    task, then clips columns.  The 1/T normalisation mirrors the decoder
    refit and keeps the ridge weight constant relative to the data term.
    Each task adds only the rank-one term outer(w_t, w_t) to acc_C, so
    until the task vectors span R^d every arrival brings a fresh direction
    that the ridge barely damps, and the steps follow the code scale.  The
    per-task steps shrink once acc_C accumulates to full rank; the ridge's
    scaling is not what makes them shrink (a ridge of mu instead of T mu
    shows the same decay).
    """
    d, p = lib.d, lib.p
    target = np.asarray(phi_inverse(s_t), dtype=float)
    if not np.isfinite(target).all():
        raise ValueError("phi_inverse(s_t) is not finite")
    acc_M = lib.acc_M + np.outer(target, w_t)
    acc_C = lib.acc_C + np.outer(w_t, w_t)
    T = lib.tasks_seen + 1
    system = acc_C / T
    system.flat[::d + 1] += ridge_mu
    encoder = _clip_columns(_solve_spd(system, acc_M.T / T, "encoder").T)
    return dataclasses.replace(lib, encoder=encoder, acc_M=acc_M, acc_C=acc_C)


def bump_tasks_seen(lib: FeatureLibrary) -> FeatureLibrary:
    return dataclasses.replace(lib, tasks_seen=lib.tasks_seen + 1)


def admit_representative(mlib: tuple[str, ...], s_t: np.ndarray, assignment: Assignment,
                         task_id: str) -> tuple[tuple[str, ...], bool]:
    """`mlib` with `task_id` appended when the outlier slot wins.

    The first task seeds the library.  A cost tie goes to the lower slot
    and does not admit.  A code with no nonzero entry is never admitted, not
    even the first: the zero vector reconstructs no model, yet later
    arrivals would sit at distance 0 from it.
    """
    admitted = assignment.picks_outlier and bool(np.any(s_t))
    return (mlib + (task_id,) if admitted else mlib), admitted

"""The two knowledge libraries and their closed-form online updates.

The feature-learning library is an encoder/decoder pair over task
parameters.  Both halves are refit from sufficient statistics each time a
task arrives: the decoder from a Kronecker-structured normal system
(A, acc_b), the encoder from per-row least squares accumulated in
(acc_M, acc_C).  Columns are kept inside the unit l2 ball by rescaling
after each solve.

Each update is a fold and a solve.  The fold (`fold_decoder`,
`fold_encoder`) adds tasks' terms to the statistics, reading only each
task's code, single-task fit w, Hessian omega and representative term;
the solve refits the half from the statistics.  Learning runs both for
one task.  The statistics are therefore a function of the per-task inputs
in stream order: a checkpoint stores those inputs, not the statistics,
and loading folds the whole stream again in one call (see `engine`).

Every term of the decoder statistics is kron(W, H) with W built from
codes (s s' and the representative differences), so they live in
span(codes) (x) R^d, and on the rest of R^(dp) the decoder system is
mu I with a zero right-hand side.  The library therefore holds an
orthonormal basis Q (p x r) of every code that has entered the
statistics, grown by one Gram-Schmidt direction per new vector, and
keeps the statistics in its coordinates, sized by its rank r: a
direction's statistics start at exactly zero when it joins.  A refit
solves the (dr) x (dr) system for Y (d x r) and sets D = Y Q'.

A, r(r+1)/2 blocks of d x d (2.7 MB at d = 40, r = 20), is never held.
The library keeps its terms instead, each Hessian array with the weights
W[i, j] (i <= j) it carries in the coordinates of the basis when its task
arrived, and each refit sums them, one GEMM per chunk of pairs, straight
into the block columns of a prefix of one (dp) x (dp) buffer per thread
that is reused from refit to refit (`decoder_system`).  There the system
is factored in place as U'U by block rows; only the upper triangle is
read.  A term holds at most r(r+1)/2 weights (1.7 kB at r = 20) beside a
Hessian array that the engine's records hold anyway.  The sum costs
r(r+1)/2 d^2 multiply-adds per term at each refit, linear in the number
of tasks, where a running sum of A cost O(r^2 d^2) per arrival: at
d = 40, p = 20 the refit alone takes as long as with the running sum
near 40 tasks and longer after, but it allocates no new set of blocks
per arrival.  acc_b, acc_M and acc_C are small and stay running sums.

The model library is an append-only tuple of representative task ids, in
admission order; a representative's code is its task's code, which never
changes after learning, so reverse transfer flows only through the
decoder refits.

The checkpoint format, its validation and its bytes are in `engine`.
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
    """Encoder/decoder pair plus the statistics backing their refits.

    The decoder statistics, A, a sum of kron(W, H), and acc_b, of
    s (x) (H w), are held only in the coordinates of `basis`, an
    orthonormal Q (p x r) whose span holds every code that entered them.
    acc_b is `acc_b_coords`, of dr entries.  A is held as its terms:
    `decoder_terms` has, in stream order, one (H, pair weights) for each
    Hessian array H of each task whose weights are not all zero, both
    read-only: H is the caller's array itself when it is read-only, as the
    engine passes the one its `PerTaskRecord` holds, and a read-only copy
    otherwise.  The pair weights are W[i, j] for i <= j in
    j-major order, (0, 0), (0, 1), (1, 1), (0, 2), ..., in the k
    coordinates the basis had once the task's vectors joined; the first
    directions' pairs come first, so the weights of the directions that
    joined later are zero.
    """

    decoder: np.ndarray       # d x p
    encoder: np.ndarray       # p x d
    basis: np.ndarray         # p x r, orthonormal columns
    decoder_terms: tuple      # (H, k(k+1)/2 pair weights) per Hessian array, in stream order
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
    return empty_library(decoder, encoder)


def empty_library(decoder: np.ndarray, encoder: np.ndarray) -> FeatureLibrary:
    """The library with this decoder (d x p) and encoder and the statistics
    of no task: an empty basis and zeroed accumulators."""
    d, p = decoder.shape
    return FeatureLibrary(
        decoder=decoder,
        encoder=encoder,
        basis=np.zeros((p, 0)),
        decoder_terms=(),
        acc_b_coords=np.zeros(0),
        acc_M=np.zeros((p, d)),
        acc_C=np.zeros((d, d)),
        tasks_seen=0,
    )


def _symmetric_bits(a: np.ndarray) -> bool:
    """Whether each trailing square matrix of `a` equals its transpose bit
    for bit, so that -0.0 and +0.0 differ; the checkpoint's packing of
    Hessians in `engine` relies on it too."""
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


def fold_decoder(lib: FeatureLibrary,
                 tasks: Sequence[tuple[np.ndarray, np.ndarray,
                                       Sequence[tuple[np.ndarray, np.ndarray, float]],
                                       np.ndarray]],
                 lambda2: float) -> FeatureLibrary:
    """Fold `tasks`, each (s_t, omega, reps_used, w_t) as `update_decoder`
    takes them, in order into the decoder statistics; the decoder is left
    as it is.

    `omega` and the representative Hessians whose terms enter must equal
    their transposes bit for bit, as `tasks.hessian_at` makes them; any
    other raises ValueError, since the refit reads only the upper triangle
    of the system they build.  The basis first grows by the task's code
    and each representative code whose term enters the statistics
    (lambda2 > 0 and z_k != 0), where they lie outside it; in the k
    coordinates of that basis the task adds s s' (x) Omega plus
    lambda2 z_k (s_k - s)(s_k - s)' (x) Omega_k over `reps_used` to A, and
    vec(Omega w s') = s (x) (Omega w) to acc_b (column-major
    vectorisation: vec(Omega D s s') = (s s' (x) Omega) vec(D)).  The
    weights of the terms that share one Hessian array are summed, so a
    squared-loss task, whose representative carries its own omega, adds
    one term to `decoder_terms` and a logistic one at a representative's
    slot two; a term whose weights are all zero, as every term is while
    the basis is empty, adds nothing and is left out.  Terms are only
    appended, so folding tasks one call at a time or all in one call gives
    the same bits.
    """
    d, p = lib.d, lib.p
    basis, terms, acc_b = lib.basis, list(lib.decoder_terms), lib.acc_b_coords
    for s_t, omega, reps_used, w_t in tasks:
        if s_t.shape != (p,) or w_t.shape != (d,):
            raise ValueError("task quantities do not match the library dimensions")
        reps_used = [rep for rep in reps_used if lambda2 > 0 and rep[2] != 0.0]
        if not all(h.shape == (d, d) and _symmetric_bits(h)
                   for h in [omega] + [omega_k for _, omega_k, _ in reps_used]):
            raise ValueError("every Hessian must be d x d and symmetric bit for bit")
        basis = _grow_basis(basis, [s_t] + [s_k for s_k, _, _ in reps_used])
        c_t = s_t @ basis
        groups = {id(omega): [omega, np.outer(c_t, c_t)]}
        for s_k, omega_k, z_k in reps_used:
            diff = s_k @ basis - c_t
            group = groups.setdefault(id(omega_k), [omega_k, 0.0])
            group[1] = group[1] + lambda2 * z_k * np.outer(diff, diff)
        jl, il = np.tril_indices(c_t.size)
        for hessian, weights in groups.values():
            pair_weights = weights[il, jl]
            if pair_weights.any():
                terms.append((_read_only(hessian), _read_only(pair_weights)))
        acc_b = _add_prefix(acc_b, np.kron(c_t, omega @ w_t))
    return dataclasses.replace(lib, basis=basis, decoder_terms=tuple(terms),
                               acc_b_coords=acc_b)


def _read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself when it is read-only, as the engine's per-task arrays
    are, else a read-only copy, so that no later write by a caller reaches
    a library."""
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _add_prefix(prior: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """`terms` plus `prior` on their leading entries: `prior` holds the
    statistics so far, and the entries past it are new directions' that
    `terms` start."""
    n = len(prior)
    return np.concatenate([prior + terms[:n], terms[n:]])


def _hessian_stack(hessians: Sequence[np.ndarray]) -> np.ndarray:
    """The G d x d `hessians` as the rows of a G x d^2 matrix, stacked in
    this thread's reused buffer, which is allocated again at twice G only
    when G outgrows it: a fresh array for each refit, a little larger each
    time, would have its pages faulted in afresh."""
    G, d = len(hessians), hessians[0].shape[0]
    buf = getattr(_workspace, "hessians", None)
    if buf is None or buf.shape[1:] != (d, d) or len(buf) < G:
        buf = _workspace.hessians = np.empty((2 * G, d, d))
    return np.stack(hessians, out=buf[:G]).reshape(G, d * d)


# pairs per GEMM in which `decoder_system` forms the pair blocks: an
# output of 614 kB at d = 40
_PAIR_CHUNK = 48


def decoder_system(lib: FeatureLibrary, scale: float) -> np.ndarray:
    """`scale` times the decoder statistics A, the (dr) x (dr) matrix in
    basis coordinates, as far as a refit reads it: the d x d blocks (i, j)
    with i <= j, written whole into a prefix of this thread's reused
    (dp) x (dp) buffer, of which the n x n view is returned; the rest of it
    is stale, and the next assembly on this thread overwrites it.

    Block (i, j) is the sum over `decoder_terms` of W[i, j] H, with W's
    entries past a term's k coordinates zero, since a direction that
    joined later held none of its weight.  With the terms' pair weights
    zero-padded as the rows of P (G x r(r+1)/2) and their Hessians stacked
    as the rows of H (G x d^2, `_hessian_stack`), the blocks are the rows
    of (scale P)' H, formed `_PAIR_CHUNK` pairs at a time, so that no
    temporary of the blocks' size is made, and copied into place block
    column by block column; in the j-major order of the pairs, block
    column j is the j + 1 from j (j + 1) / 2 on.  This costs
    r(r+1)/2 G d^2 multiply-adds, G about the number of tasks.
    """
    d, r = lib.d, lib.basis.shape[1]
    n = d * r
    system = _system_buffer(d * lib.p).reshape(-1)[:n * n].reshape(n, n)
    terms = lib.decoder_terms
    if not terms:
        return system
    jl, il = np.tril_indices(r)
    weights = np.zeros((len(jl), len(terms)))
    for g, (_, pair_weights) in enumerate(terms):
        weights[:pair_weights.size, g] = pair_weights
    weights *= scale
    hessians = _hessian_stack([hessian for hessian, _ in terms])
    blocks = np.empty((min(_PAIR_CHUNK, len(jl)), d * d))
    rows = system.reshape(r, d, r, d)
    for k0 in range(0, len(jl), _PAIR_CHUNK):
        k1 = min(k0 + _PAIR_CHUNK, len(jl))
        chunk = np.matmul(weights[k0:k1], hessians, out=blocks[:k1 - k0]).reshape(-1, d, d)
        k = k0
        while k < k1:
            i, j = il[k], jl[k]
            end = min(k1, (j + 1) * (j + 2) // 2)
            rows[i:i + end - k, :, j, :] = chunk[k - k0:end - k0]
            k = end
    return system


def update_decoder(lib: FeatureLibrary, s_t: np.ndarray, omega: np.ndarray,
                   reps_used: Sequence[tuple[np.ndarray, np.ndarray, float]],
                   lambda2: float, w_t: np.ndarray,
                   ridge_mu: float = 1e-6) -> FeatureLibrary:
    """Fold one task into the decoder statistics (`fold_decoder`) and refit
    the decoder.

    Solves (A / T + mu I) vec(D) = acc_b / T with T counting this task,
    then clips columns to the unit ball.  The upper triangle of the
    (dr) x (dr) system is assembled from the terms by `decoder_system` in
    this thread's reused buffer and factored there in place; its solution
    Y (d x r) gives D = Y Q'.  On the complement of the basis the system is
    mu I with a zero right-hand side, so this is the solution of the full
    system, and at mu = 0 with r < p the full system is singular.
    `tasks_seen` is left unchanged; the caller bumps it once per task
    after both library updates.
    """
    lib = fold_decoder(lib, [(s_t, omega, reps_used, w_t)], lambda2)
    d, p, r = lib.d, lib.p, lib.basis.shape[1]
    if ridge_mu == 0.0 and r < p:
        raise np.linalg.LinAlgError(
            f"decoder system is singular off the {r}-dimensional span of the codes; "
            f"rerun with ridge_mu > 0")
    T = lib.tasks_seen + 1
    system = decoder_system(lib, 1.0 / T)
    system.flat[::d * r + 1] += ridge_mu
    y = _solve_spd(system, lib.acc_b_coords / T, "decoder")
    return dataclasses.replace(lib, decoder=_clip_columns(y.reshape(r, d).T @ lib.basis.T))


def fold_encoder(lib: FeatureLibrary, tasks: Sequence[tuple[np.ndarray, np.ndarray]],
                 phi_inverse: Callable[[np.ndarray], np.ndarray]) -> FeatureLibrary:
    """Fold `tasks`, each (s_t, w_t), in order into the encoder statistics,
    adding outer(phi^-1(s_t), w_t) to acc_M and outer(w_t, w_t) to acc_C;
    the encoder is left as it is."""
    acc_M, acc_C = lib.acc_M.copy(), lib.acc_C.copy()
    for s_t, w_t in tasks:
        target = np.asarray(phi_inverse(s_t), dtype=float)
        if not np.isfinite(target).all():
            raise ValueError("phi_inverse(s_t) is not finite")
        acc_M += np.outer(target, w_t)
        acc_C += np.outer(w_t, w_t)
    return dataclasses.replace(lib, acc_M=acc_M, acc_C=acc_C)


def update_encoder(lib: FeatureLibrary, s_t: np.ndarray, w_t: np.ndarray,
                   phi_inverse: Callable[[np.ndarray], np.ndarray],
                   ridge_mu: float = 1e-6) -> FeatureLibrary:
    """Fold one task into the encoder statistics (`fold_encoder`) and refit
    the encoder.

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
    lib = fold_encoder(lib, [(s_t, w_t)], phi_inverse)
    T = lib.tasks_seen + 1
    system = lib.acc_C / T
    system.flat[::lib.d + 1] += ridge_mu
    encoder = _clip_columns(_solve_spd(system, lib.acc_M.T / T, "encoder").T)
    return dataclasses.replace(lib, encoder=encoder)


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

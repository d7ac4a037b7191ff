"""The two knowledge libraries and their closed-form online updates.

The feature-learning library is an encoder/decoder pair over task
parameters.  Both halves are refit from running sufficient statistics
each time a task arrives: the decoder from a Kronecker-structured normal
system accumulated in (acc_A, acc_b), the encoder from per-row least
squares accumulated in (acc_M, acc_C).  Columns are kept inside the unit
l2 ball by rescaling after each solve.

The model library is an append-only list of representative codes; codes
never change after admission, so reverse transfer flows only through the
decoder refits.
"""

from __future__ import annotations

import base64
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assignment import Assignment


@dataclass(frozen=True)
class FeatureLibrary:
    """Encoder/decoder pair plus the accumulators backing their refits."""

    decoder: np.ndarray   # d x p
    encoder: np.ndarray   # p x d
    acc_A: np.ndarray     # dp x dp
    acc_b: np.ndarray     # dp
    acc_M: np.ndarray     # p x d
    acc_C: np.ndarray     # d x d
    tasks_seen: int

    @property
    def d(self) -> int:
        return self.decoder.shape[0]

    @property
    def p(self) -> int:
        return self.decoder.shape[1]


@dataclass(frozen=True)
class RepresentativeRecord:
    code: np.ndarray
    source_task: str
    admitted_at: int


@dataclass(frozen=True)
class ModelLibrary:
    reps: tuple[RepresentativeRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.reps)

    def codes(self) -> list[np.ndarray]:
        return [r.code for r in self.reps]


def init_libraries(d: int, p: int, seed: int) -> FeatureLibrary:
    """Gaussian encoder/decoder with unit-norm columns, zeroed accumulators."""
    if not (1 <= p <= d):
        raise ValueError(f"need 1 <= p <= d, got p={p}, d={d}")
    rng = np.random.default_rng(seed)
    decoder = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, p))
    decoder /= np.linalg.norm(decoder, axis=0, keepdims=True)
    encoder = rng.normal(0.0, 1.0 / np.sqrt(d), size=(p, d))
    encoder /= np.linalg.norm(encoder, axis=0, keepdims=True)
    dp = d * p
    return FeatureLibrary(
        decoder=decoder,
        encoder=encoder,
        acc_A=np.zeros((dp, dp)),
        acc_b=np.zeros(dp),
        acc_M=np.zeros((p, d)),
        acc_C=np.zeros((d, d)),
        tasks_seen=0,
    )


def _clip_columns(mat: np.ndarray) -> np.ndarray:
    """Rescale columns with norm > 1 back onto the unit sphere."""
    norms = np.linalg.norm(mat, axis=0)
    scale = np.where(norms > 1.0, norms, 1.0)
    return mat / scale


# rows per diagonal block of the Cholesky factorisation and the triangular
# substitutions
_SUBST_BLOCK = 64


def _solve_triangular(tri: np.ndarray, rhs: np.ndarray, lower: bool) -> np.ndarray:
    """Blocked forward (lower) or back (upper) substitution for tri x = rhs.

    numpy has no triangular solve, and np.linalg.solve on a triangular
    factor runs a full LU; here only the small diagonal blocks go through
    np.linalg.solve and everything off the diagonal is a product with the
    part of x already solved.  `rhs` may be a vector or a matrix.
    """
    n = tri.shape[0]
    x = np.array(rhs, dtype=float)
    starts = list(range(0, n, _SUBST_BLOCK))
    for i0 in (starts if lower else reversed(starts)):
        blk = slice(i0, min(i0 + _SUBST_BLOCK, n))
        done = slice(0, i0) if lower else slice(blk.stop, n)
        x[blk] -= tri[blk, done] @ x[done]
        x[blk] = np.linalg.solve(tri[blk, blk], x[blk])
    return x


def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the lower triangle of the symmetric matrix `a` with its
    Cholesky factor, leaving the upper triangle outside the diagonal blocks
    stale.

    Blocked left-looking: each block column first subtracts the product of
    the rows already factored, then its diagonal block goes through
    np.linalg.cholesky (which reads only that block's lower triangle and
    zeroes its upper one), and the rows below are multiplied by the
    transposed inverse of that small factor, L_below = A_below L_jj^-T.  A
    product with the explicit inverse runs about 1.6 times as fast as
    np.linalg.solve with the panel as right-hand side.  Only the lower
    triangle is ever read, and nothing of the matrix's size is allocated.
    Raises np.linalg.LinAlgError when a diagonal block is not positive
    definite.
    """
    n = a.shape[0]
    for i0 in range(0, n, _SUBST_BLOCK):
        blk = slice(i0, min(i0 + _SUBST_BLOCK, n))
        a[i0:, blk] -= a[i0:, :i0] @ a[blk, :i0].T
        a[blk, blk] = np.linalg.cholesky(a[blk, blk])
        a[blk.stop:, blk] = a[blk.stop:, blk] @ np.linalg.inv(a[blk, blk]).T


def _solve_spd(system: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve the symmetric PSD library system with one Cholesky factorisation
    and two blocked triangular substitutions; a failed factorisation is the
    singularity signal for the mu = 0 case.  `system` is a temporary the
    caller owns: it is factored in place and left holding the factor."""
    try:
        _cholesky_in_place(system)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            f"{what} system is singular; rerun with ridge_mu > 0"
        ) from None
    return _solve_triangular(system.T, _solve_triangular(system, rhs, lower=True),
                             lower=False)


def decoder_contribution(s_t: np.ndarray, omega: np.ndarray,
                         reps_used: Sequence[tuple[np.ndarray, np.ndarray, float]],
                         lambda2: float) -> np.ndarray:
    """One task's additive contribution to acc_A.

    Column-major vectorisation throughout: vec(Omega D s s') =
    (s s' (x) Omega) vec(D), so acc_A collects s s' (x) Omega plus the
    weighted representative-difference terms
    lambda2 z_k (s_k - s)(s_k - s)' (x) Omega_k over the representatives
    with z_k != 0; the matching acc_b contribution is
    vec(Omega w s') = s (x) (Omega w).  The p x p weights and the d x d
    Hessians are stacked and the sum of Kronecker products is formed in
    one contraction, W[k, i, j] Omega[k, a, b] -> A[(i, a), (j, b)].
    """
    weights = [np.outer(s_t, s_t)]
    hessians = [omega]
    if lambda2 > 0:
        for s_k, omega_k, z_k in reps_used:
            if z_k == 0.0:
                continue
            diff = s_k - s_t
            weights.append(lambda2 * z_k * np.outer(diff, diff))
            hessians.append(omega_k)
    p, d = s_t.shape[0], omega.shape[0]
    return np.einsum("kij,kab->iajb", np.stack(weights), np.stack(hessians)
                     ).reshape(d * p, d * p)


def update_decoder(lib: FeatureLibrary, s_t: np.ndarray, omega: np.ndarray,
                   reps_used: Sequence[tuple[np.ndarray, np.ndarray, float]],
                   lambda2: float, w_t: np.ndarray,
                   ridge_mu: float = 1e-6) -> FeatureLibrary:
    """Fold one task into the decoder statistics and refit the decoder.

    Solves (acc_A / T + mu I) vec(D) = acc_b / T with T counting this task,
    then clips columns to the unit ball.  `tasks_seen` is left unchanged;
    the caller bumps it once per task after both library updates.
    """
    d, p = lib.d, lib.p
    if s_t.shape != (p,) or w_t.shape != (d,) or omega.shape != (d, d):
        raise ValueError("task quantities do not match the library dimensions")
    acc_A = lib.acc_A + decoder_contribution(s_t, omega, reps_used, lambda2)
    acc_b = lib.acc_b + np.kron(s_t, omega @ w_t)
    T = lib.tasks_seen + 1
    system = acc_A / T
    system.flat[::d * p + 1] += ridge_mu
    vec_d = _solve_spd(system, acc_b / T, "decoder")
    # C-contiguous so in-memory and checkpoint-reloaded layouts match bitwise
    decoder = np.ascontiguousarray(_clip_columns(vec_d.reshape((d, p), order="F")))
    return dataclasses.replace(lib, decoder=decoder, acc_A=acc_A, acc_b=acc_b)


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


def admit_representative(mlib: ModelLibrary, s_t: np.ndarray,
                         assignment: Assignment, task_id: str,
                         t: int) -> tuple[ModelLibrary, bool]:
    """Append s_t as a new representative when the outlier slot wins.

    The first task seeds the library.  Ties on the argmax break toward not
    admitting.  A code with no nonzero entry is never admitted, not even
    the first: the zero vector reconstructs no model, yet later arrivals
    would sit at distance 0 from it.
    """
    admitted = (t == 1 or assignment.picks_outlier) and bool(np.any(s_t))
    if not admitted:
        return mlib, False
    code = np.array(s_t, dtype=float, copy=True)
    code.setflags(write=False)
    rec = RepresentativeRecord(code=code, source_task=task_id, admitted_at=t)
    return ModelLibrary(reps=mlib.reps + (rec,)), True


# checkpoint i/o.  Version 3 stores each array as {"dtype": "<f8", "shape":
# [...], "data": base64 of its raw little-endian float64 bytes}, which
# round-trips bit for bit.  A Kronecker-symmetric accumulator, a sum of
# kron(W, H) with every W (p x p) and H (d x d) symmetric, also carries
# "kron": [p, d] and stores only its unique entries: the (i <= j, a <= b)
# block of a.reshape(p, d, p, d) with the axes reordered to (i, j, a, b).
# acc_A is one (p = 20, d = 40: 172,200 of 640,000 entries), and acc_C,
# with p = 1, is a plain symmetric matrix.  `encode_array` checks both
# partial transposes bit for bit on every save and stores an array that
# fails in full, so an asymmetric accumulator is never made symmetric.
# Version 2 had no packed entries, and version 1 stored nested lists of
# shortest-repr floats; both still load.

CHECKPOINT_VERSION = 3
READABLE_VERSIONS = (1, 2, CHECKPOINT_VERSION)
_DTYPE = "<f8"


def _pair_positions(n: int) -> np.ndarray:
    """The n x n table, symmetric, of each pair's position among the pairs
    i <= j that np.triu_indices(n) lists."""
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    return pos


def _kron_symmetric(a: np.ndarray, p: int, d: int) -> bool:
    """Whether swapping i and j, and swapping a and b, in
    a.reshape(p, d, p, d) leaves every entry's bits unchanged."""
    bits = a.view(np.uint64).reshape(p, d, p, d)
    return (np.array_equal(bits, bits.transpose(2, 1, 0, 3))
            and np.array_equal(bits, bits.transpose(0, 3, 2, 1)))


def encode_array(a: np.ndarray, kron: tuple[int, int] | None = None) -> dict:
    """The checkpoint entry of a float64 array; with `kron` = (p, d), a
    (dp) x (dp) array that passes the symmetry check is stored packed."""
    a = np.ascontiguousarray(a, dtype=_DTYPE)
    entry = {"dtype": _DTYPE, "shape": list(a.shape)}
    if kron is not None and _kron_symmetric(a, *kron):
        p, d = kron
        ip, jp = np.triu_indices(p)
        ia, ja = np.triu_indices(d)
        entry["kron"] = [p, d]
        a = a.reshape(p, d, p, d)[ip[:, None], ia, jp[:, None], ja]
    entry["data"] = base64.b64encode(a.tobytes()).decode("ascii")
    return entry


def decode_array(value, key: str) -> np.ndarray:
    """The float64 array `encode_array` wrote, or a version-1 nested list;
    `key` names the array in errors about a malformed entry."""
    if not isinstance(value, dict):
        return np.array(value, dtype=float)
    if value.get("dtype") != _DTYPE:
        raise ValueError(f"checkpoint array {key!r}: dtype {value.get('dtype')!r}, "
                         f"expected {_DTYPE!r}")
    shape = tuple(int(n) for n in value["shape"])
    size = math.prod(shape)
    kron = value.get("kron")
    if kron is not None:
        try:
            p, d = (int(n) for n in kron)
        except (TypeError, ValueError):
            raise ValueError(f"checkpoint array {key!r}: kron factors {kron!r} "
                             f"are not [p, d]") from None
        if min(p, d) < 1 or shape != (p * d, p * d):
            raise ValueError(f"checkpoint array {key!r}: kron factors [{p}, {d}] do "
                             f"not match shape {shape}")
        size = p * (p + 1) // 2 * (d * (d + 1) // 2)
    raw = base64.b64decode(value["data"], validate=True)
    if min(shape, default=0) < 0 or len(raw) != 8 * size:
        what = "the packed entries" if kron is not None else "a float64 array"
        raise ValueError(f"checkpoint array {key!r}: {len(raw)} bytes do not hold "
                         f"{what} of shape {shape}")
    flat = np.frombuffer(raw, dtype=_DTYPE)
    if kron is None:
        return flat.reshape(shape).astype(float)
    packed = flat.reshape(-1, d * (d + 1) // 2)
    # entry (i, a), (j, b) of the full array is the packed entry of the
    # pairs (min(i, j), max(i, j)) and (min(a, b), max(a, b))
    return packed[_pair_positions(p)[:, None, :, None],
                  _pair_positions(d)[:, None, :]].reshape(shape)


def _flib_layout(d: int, p: int) -> dict:
    """Each library array's shape and, for the Kronecker-symmetric
    accumulators, its (p, d) factors."""
    dp = d * p
    return {"decoder": ((d, p), None), "encoder": ((p, d), None),
            "acc_A": ((dp, dp), (p, d)), "acc_b": ((dp,), None),
            "acc_M": ((p, d), None), "acc_C": ((d, d), (1, d))}


def library_to_dict(flib: FeatureLibrary, mlib: ModelLibrary) -> dict:
    return {
        "d": flib.d,
        "p": flib.p,
        "tasks_seen": flib.tasks_seen,
        **{name: encode_array(getattr(flib, name), kron)
           for name, (_, kron) in _flib_layout(flib.d, flib.p).items()},
        "representatives": [
            {"code": encode_array(r.code), "source_task": r.source_task,
             "admitted_at": r.admitted_at}
            for r in mlib.reps
        ],
    }


def _decode_shaped(value, key: str, shape: tuple, kron=None) -> np.ndarray:
    """decode_array, refusing an array whose shape, or a packed entry whose
    [p, d], disagrees with the checkpoint's own d and p."""
    expected = None if kron is None else list(kron)
    if isinstance(value, dict) and "kron" in value and value["kron"] != expected:
        raise ValueError(f"checkpoint array {key!r}: kron factors {value['kron']!r}, "
                         f"expected {expected} from the checkpoint's d and p")
    a = decode_array(value, key)
    if a.shape != shape:
        raise ValueError(f"checkpoint array {key!r}: shape {a.shape}, expected {shape} "
                         f"from the checkpoint's d and p")
    return a


def library_from_dict(payload: dict) -> tuple[FeatureLibrary, ModelLibrary]:
    d, p = int(payload["d"]), int(payload["p"])
    flib = FeatureLibrary(
        **{name: _decode_shaped(payload[name], name, shape, kron)
           for name, (shape, kron) in _flib_layout(d, p).items()},
        tasks_seen=int(payload["tasks_seen"]),
    )
    reps = []
    for i, item in enumerate(payload["representatives"]):
        code = _decode_shaped(item["code"], f"representatives[{i}].code", (p,))
        code.setflags(write=False)
        reps.append(RepresentativeRecord(code=code, source_task=item["source_task"],
                                         admitted_at=int(item["admitted_at"])))
    return flib, ModelLibrary(reps=tuple(reps))

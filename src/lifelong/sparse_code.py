"""Code vector sub-problem: an l1-regularised quadratic, solved exactly by
feature-sign search.

The smooth part couples three residuals: a Gram-weighted reconstruction of
the task parameter through the decoder, the deviation of the code from the
encoder image of the parameter, and weighted deviations from each
representative code mapped through the decoder.  The code problem is
strongly convex (the encoder term contributes an identity block), so the
minimiser is unique regardless of initialisation.  It collapses to
s'Gs - 2h's + c0 + lambda1 |s|_1 with G only p x p, small enough for an
active-set method that reaches the minimiser in a few p x p solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tasks import ConvergenceError

# active-set solves allowed per code; the code problems of the 30-task
# synthetic streams take a median of 1 and at most 9
FEATURE_SIGN_MAX_STEPS = 1000
# multiple of p * eps * (|G||x| + |h|) the KKT test forgives as round-off
_KKT_ULPS = 8.0


@dataclass(frozen=True)
class Representative:
    """A stored representative code with the task-side weights it carries."""

    code: np.ndarray          # p
    omega: np.ndarray         # d x d PSD, half-Hessian at the reconstructed point
    weight: float = 0.0       # 1/(K + 1) in round 1, then 1 at the chosen slot, else 0


@dataclass(frozen=True)
class CodeProblem:
    """Inputs of one code solve, with the decoder held fixed."""

    w: np.ndarray             # d, single-task parameter
    omega: np.ndarray         # d x d PSD
    decoder: np.ndarray       # d x p
    encoder_image: np.ndarray  # p, phi(L w)
    reps: tuple[Representative, ...] = ()
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        d, p = self.decoder.shape
        if self.w.shape != (d,) or self.omega.shape != (d, d):
            raise ValueError("w/omega dimensions do not match the decoder")
        if self.encoder_image.shape != (p,):
            raise ValueError("encoder image length does not match the decoder width")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be >= 0")
        for rep in self.reps:
            if rep.code.shape != (p,) or rep.omega.shape != (d, d):
                raise ValueError("representative dimensions do not match the decoder")
            if not 0.0 <= rep.weight <= 1.0 + 1e-8:
                raise ValueError("representative weights must lie in [0, 1]")
        object.__setattr__(self, "reps", tuple(self.reps))

    @property
    def code_len(self) -> int:
        return self.decoder.shape[1]


def soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    """Proximal map of tau * ||.||_1: shrink each entry toward zero by tau."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def smooth_objective(prob: CodeProblem, s: np.ndarray) -> float:
    """Value of the smooth part at s (everything except the l1 penalty)."""
    D = prob.decoder
    r = D @ s - prob.w
    val = float(r @ (prob.omega @ r))
    e = s - prob.encoder_image
    val += float(e @ e)
    if prob.lambda2 > 0:
        for rep in prob.reps:
            dr = D @ (s - rep.code)
            val += prob.lambda2 * rep.weight * float(dr @ (rep.omega @ dr))
    return val


def smooth_gradient(prob: CodeProblem, s: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part at s."""
    s = np.asarray(s, dtype=float)
    if s.shape != (prob.code_len,):
        raise ValueError(f"code has shape {s.shape}, expected ({prob.code_len},)")
    D = prob.decoder
    grad = 2.0 * (D.T @ (prob.omega @ (D @ s - prob.w)))
    grad += 2.0 * (s - prob.encoder_image)
    if prob.lambda2 > 0:
        for rep in prob.reps:
            grad += 2.0 * prob.lambda2 * rep.weight * (D.T @ (rep.omega @ (D @ (s - rep.code))))
    return grad


def composite_objective(prob: CodeProblem, s: np.ndarray) -> float:
    return smooth_objective(prob, s) + prob.lambda1 * float(np.abs(s).sum())


def _quadratic_form(prob: CodeProblem):
    """Collapse the smooth part to s'Gs - 2h's + c0, the sum of each term's
    share (name, G_k, h_k, c_k): the decoder reconstruction, the encoder
    coupling and, when lambda2 > 0, each representative.  Returns G, h, c0
    and the shares."""
    D = prob.decoder
    Ow = prob.omega @ prob.w
    e = prob.encoder_image
    terms = [("decoder reconstruction term", D.T @ prob.omega @ D, D.T @ Ow, float(prob.w @ Ow)),
             ("encoder coupling term", np.eye(prob.code_len), e, float(e @ e))]
    if prob.lambda2 > 0:
        for k, rep in enumerate(prob.reps):
            B = D.T @ rep.omega @ D
            coef = prob.lambda2 * rep.weight
            Bs = B @ rep.code
            terms.append((f"representative term k={k}", coef * B, coef * Bs,
                          coef * float(rep.code @ Bs)))
    _, G, h, c0 = terms[0]
    for _, G_k, h_k, c_k in terms[1:]:
        G, h, c0 = G + G_k, h + h_k, c0 + c_k
    return (G + G.T) / 2, h, c0, terms


def _name_nonfinite(terms: list, s: np.ndarray | None = None) -> str:
    """Name the first term whose share of the form, or with s given its
    value s'G_k s - 2h_k's + c_k at s, is not finite; else the overflow is
    in the sum of the terms, or at s in the l1 term."""
    for name, G_k, h_k, c_k in terms:
        if s is None:
            finite = np.isfinite(G_k).all() and np.isfinite(h_k).all() and np.isfinite(c_k)
        else:
            finite = np.isfinite(s @ G_k @ s - 2.0 * (h_k @ s) + c_k)
        if not finite:
            return name
    return "sum of the terms" if s is None else "l1 term"


def _kkt_slack(G: np.ndarray, h: np.ndarray, x: np.ndarray, lam1: float) -> np.ndarray:
    """Per-coordinate round-off allowance of the KKT test at x.

    Forming g = 2(Gx - h) and solving the active system that produced x
    (a backward-stable solve) each leave an error below a small multiple
    of p * eps * (|G||x| + |h|) in every coordinate, whatever the
    conditioning of G."""
    scale = 2.0 * (np.abs(G) @ np.abs(x) + np.abs(h)) + lam1
    return _KKT_ULPS * h.shape[0] * np.finfo(float).eps * scale


def _feature_sign_step(terms: list, lam1: float, G: np.ndarray, x: np.ndarray, g: np.ndarray,
                       theta: np.ndarray) -> tuple[np.ndarray, float]:
    """One feature-sign step from x with the signs theta held fixed.

    Minimises the sign-fixed quadratic x'Gx - 2h'x + lam1 theta'x over the
    active set (theta != 0), then searches the segment from x to that
    minimiser: its end and each point where a nonzero coefficient of x
    crosses zero, which is set to exactly 0 there.  Returns the candidate
    with the lowest objective and its objective change, computed from the
    step itself (d'g + d'Gd + lam1 (|y|_1 - |x|_1) with d = y - x), which
    resolves changes far below the round-off of the objective's value.
    A non-finite change raises `FloatingPointError` naming the term of
    `terms`, the shares of the form, that overflows at the candidate."""
    A = np.flatnonzero(theta)
    step = np.zeros_like(x)
    step[A] = np.linalg.solve(G[np.ix_(A, A)], -0.5 * (g[A] + lam1 * theta[A]))
    end = x + step
    crossing = np.flatnonzero((x != 0) & (x * end < 0))
    ts = np.append(-x[crossing] / step[crossing], 1.0)
    ys = x + ts[:, None] * step
    ys[np.arange(crossing.size), crossing] = 0.0
    ds = ys - x
    deltas = (ds @ g + np.einsum("ij,jk,ik->i", ds, G, ds)
              + lam1 * (np.abs(ys).sum(axis=1) - np.abs(x).sum()))
    best = int(np.argmin(deltas))
    if not np.isfinite(deltas[best]):
        raise FloatingPointError(
            f"non-finite code objective ({_name_nonfinite(terms, ys[best])})"
        )
    return ys[best], float(deltas[best])


def encode_task(prob: CodeProblem, trace_out: list | None = None) -> np.ndarray:
    """Exact minimiser of the composite code objective by feature-sign
    search (Lee, Battle, Raina & Ng, "Efficient sparse coding algorithms",
    NIPS 2007) over the quadratic form s'Gs - 2h's + c0 + lambda1 |s|_1.

    The search starts at s = 0.  Its first active set takes the signs of
    G^-1 h and is kept only if its step lowers the objective; otherwise
    the search goes on from 0 by the textbook rule, activating the zero
    coefficient with the largest gradient.  Each step
    solves the active system and line-searches the segment to its
    solution, so no step raises the objective.  The search returns only
    on the KKT certificate, to the round-off of `_kkt_slack`: on every
    nonzero coefficient the gradient of the smooth part equals
    -lambda1 sign(s_i), and on every zero one it is at most lambda1 in
    magnitude.  A step that lowers nothing, or more than
    `FEATURE_SIGN_MAX_STEPS` active-set solves, raises `ConvergenceError`.
    `trace_out`, when given, collects the objective at 0 and after every
    step.
    """
    G, h, c0, terms = _quadratic_form(prob)
    lam1 = prob.lambda1
    x = np.zeros(prob.code_len)
    if not (np.isfinite(c0) and np.isfinite(G).all() and np.isfinite(h).all()):
        raise FloatingPointError(
            f"non-finite code objective at the start ({_name_nonfinite(terms)})"
        )
    F = c0
    trace = [] if trace_out is None else trace_out
    trace.append(F)

    solves = 0
    seed = np.sign(np.linalg.solve(G, h))
    if seed.any():
        y, delta = _feature_sign_step(terms, lam1, G, x, -2.0 * h, seed)
        solves = 1
        if delta < 0:
            x, F = y, F + delta
            trace.append(F)
    while True:
        g = 2.0 * (G @ x - h)
        theta = np.sign(x)
        slack = _kkt_slack(G, h, x, lam1)
        zero = theta == 0
        if not np.any(~zero & (np.abs(g + lam1 * theta) > slack)):
            if not np.any(zero & (np.abs(g) - lam1 > slack)):
                return x
            i = int(np.argmax(np.where(zero, np.abs(g), -np.inf)))
            theta[i] = -np.sign(g[i])
        if solves == FEATURE_SIGN_MAX_STEPS:
            raise ConvergenceError(
                f"feature-sign search reached {FEATURE_SIGN_MAX_STEPS} active-set "
                "solves without a KKT certificate"
            )
        y, delta = _feature_sign_step(terms, lam1, G, x, g, theta)
        solves += 1
        if not delta < 0:
            raise ConvergenceError(
                f"feature-sign step {solves} does not lower the code objective "
                f"(change {delta:.3e}); the KKT residual exceeds round-off"
            )
        x, F = y, F + delta
        trace.append(F)

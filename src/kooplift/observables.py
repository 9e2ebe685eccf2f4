"""Observable dictionaries, separable decompositions, and normal forms.

A dictionary here is a finite vector of scalar observables.  State
dictionaries ``H : R^n -> R^l`` act on states only; augmented dictionaries
act on state-input pairs.  Evaluation is batched: a state dictionary's
``fn`` maps an ``(n, N)`` block of states to the ``(l, N)`` block of its
values, as an input matrix function's ``fn`` maps ``(m, N)`` inputs to a
``(rows, cols, N)`` stack, and a call on one point is ``fn`` on one
column.  The central structure is the *normal form*

    Phi(x, u) = [H(x); Gtilde(u) H(x)] = [I; Gtilde(u)] H(x),

whose input-independent top block guarantees that every state observable
``h`` in span(H) extends to the augmented domain as ``h(x) * 1`` — the
control-independent extension — without leaving the spanned space.

The module also provides parametric normal-form families (polynomial, MLP,
residual MLP) with a flat parameter vector and exact reverse-accumulation
gradients, used by the dictionary-learning module.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatch, RankDeficientProbe

Array = np.ndarray

DEFAULT_RANK_TOL = 1e-8


# ----------------------------------------------------------------------
# Core dictionary containers


@dataclasses.dataclass(frozen=True)
class StateDictionary:
    """A vector of state observables ``H : R^n -> R^l``.

    Parameters
    ----------
    dim : int
        Number of observables l.
    fn : callable
        Evaluation over columns, ``(n, N) -> (l, N)``: column j of the
        result is ``H`` at column j of the data.  Calling the dictionary
        on one state ``(n,)`` runs ``fn`` on that one column.
    names : tuple of str
        Symbolic tag per element, for reports and serialization.
    domain_dim : int or None
        State dimension n, used for shape checking when known.
    source : NormalDictionary or None
        The augmented dictionary whose state block this is, set by
        :func:`kooplift.models.head_dictionary`.  Models on this basis
        serialize through the source's descriptor, read at save time.
    """

    dim: int
    fn: Callable[[Array], Array]
    names: tuple = ()
    domain_dim: int | None = None
    source: NormalDictionary | None = dataclasses.field(default=None, repr=False,
                                                         compare=False)

    def __call__(self, x) -> Array:
        return eval_matrix(self, np.asarray(x, dtype=float).reshape(-1, 1))[:, 0]


@dataclasses.dataclass(frozen=True)
class InputMatrixFunction:
    """A matrix-valued input function ``Gtilde : R^m -> R^{rows x cols}``.

    ``fn`` evaluates over columns: an ``(m, N)`` block of inputs maps to a
    ``(rows, cols, N)`` stack whose slice ``[:, :, j]`` is
    ``Gtilde(U[:, j])``.  :meth:`batch` is that evaluation, shape-checked;
    calling the object on one input vector returns one ``(rows, cols)``
    matrix.
    """

    rows: int
    cols: int
    fn: Callable[[Array], Array]
    domain_dim: int | None = None

    def batch(self, U) -> Array:
        """``Gtilde`` at every column of ``U``: shape ``(rows, cols, N)``."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if self.domain_dim is not None and U.shape[0] != self.domain_dim:
            raise DimensionMismatch(
                f"input function expects {self.domain_dim} input coordinates, got {U.shape[0]}"
            )
        out = np.asarray(self.fn(U), dtype=float)
        expected = (self.rows, self.cols, U.shape[1])
        if out.shape != expected:
            raise DimensionMismatch(f"input function returned {out.shape}, expected {expected}")
        return out

    def __call__(self, u) -> Array:
        return self.batch(np.asarray(u, dtype=float).reshape(-1, 1))[:, :, 0]


class NormalDictionary:
    """An augmented dictionary in normal form, ``Phi(x,u) = [I; Gtilde(u)] H(x)``.

    ``Gtilde`` may be absent, in which case ``s = l`` and the augmented
    dictionary is just the control-independent extension of ``H``.
    ``descriptor`` holds the keys besides ``format`` and ``dims`` that
    rebuild the dictionary through :func:`dictionary_from_json` (its
    ``kind`` and that kind's arguments), or None when JSON cannot rebuild
    it.
    """

    def __init__(self, H: StateDictionary, Gtilde: InputMatrixFunction | None,
                 state_dim: int, input_dim: int, descriptor: dict | None = None):
        if Gtilde is not None and Gtilde.cols != H.dim:
            raise DimensionMismatch(
                f"Gtilde has {Gtilde.cols} columns but H has dimension {H.dim}"
            )
        self.H = H
        self.Gtilde = Gtilde
        self.state_dim = state_dim
        self.input_dim = input_dim
        self._descriptor = descriptor

    @property
    def descriptor(self) -> dict | None:
        return self._descriptor

    @property
    def l(self) -> int:
        return self.H.dim

    @property
    def s(self) -> int:
        return self.l + (self.Gtilde.rows if self.Gtilde is not None else 0)

    def G_of(self, u) -> Array:
        """The full coefficient matrix ``G(u) = [I; Gtilde(u)]``, shape (s, l)."""
        if self.Gtilde is None:
            return np.eye(self.l)
        return np.vstack([np.eye(self.l), self.Gtilde(u)])

    def eval(self, x, u) -> Array:
        h = self.H(x)
        if self.Gtilde is None:
            return h
        return np.concatenate([h, self.Gtilde(u) @ h])

    def eval_aug(self, Z: Array) -> Array:
        """Evaluate ``Phi`` on stacked data ``Z = [X; U]``, all columns at once.

        The bottom block contracts the batched ``Gtilde(U)`` with ``H(X)``
        column by column: ``Gtilde(u_j) H(x_j)``.
        """
        X, U = self._split(Z)
        Hm = eval_matrix(self.H, X)
        return self._stack(Hm, None if self.Gtilde is None else self.Gtilde.batch(U))

    def eval_pair(self, aug) -> tuple[Array, Array]:
        """``(P, Q) = (Phi(Z), Phi(Z+))`` of augmented snapshots, Gtilde shared.

        Bit-identical to ``(eval_aug(aug.Z), eval_aug(aug.Zplus))``.  H runs
        on ``X`` and then on ``X+``, one block after the other; Gtilde runs
        once on ``U`` when ``Z`` and ``Z+`` hold the same inputs, as the
        augmented map makes them (:func:`kooplift.dynamics.to_augmented`),
        and again on ``U+`` otherwise.
        """
        X, U = self._split(aug.Z)
        Xp, Up = self._split(aug.Zplus)
        Gt = None if self.Gtilde is None else self.Gtilde.batch(U)
        P = self._stack(eval_matrix(self.H, X), Gt)
        if Gt is not None and not np.array_equal(U, Up):
            Gt = self.Gtilde.batch(Up)
        return P, self._stack(eval_matrix(self.H, Xp), Gt)

    def _stack(self, Hm: Array, Gt: Array | None) -> Array:
        """``Phi = [H; Gtilde H]`` from H at columns and Gtilde at inputs.

        ``Gt`` is ``(s-l, l, Nu)`` or None (no input rows).  The columns of
        ``Hm`` come in ``c`` groups of ``Nu``; column j of every group pairs
        with ``Gt[:, :, j]``, so data sharing its inputs (Z and Z+ of the
        augmented map) evaluates Gtilde once.  The bottom block is written
        straight into the result, so :meth:`eval_pair` holds no extra
        copy beside the Gtilde it shares.
        """
        if Gt is None:
            return Hm
        (l, Nx), (r, Nu) = Hm.shape, (Gt.shape[0], Gt.shape[2])
        Phi = np.empty((l + r, Nx))
        Phi[:l] = Hm
        c = Nx // max(Nu, 1)
        np.einsum("ijN,jcN->icN", Gt, Hm.reshape(l, c, Nu), out=Phi[l:].reshape(r, c, Nu))
        return Phi

    def _split(self, Z: Array) -> tuple[Array, Array]:
        """``(X, U)`` from stacked data ``Z = [X; U]``, shape-checked."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n, m = self.state_dim, self.input_dim
        if Z.shape[0] != n + m:
            raise DimensionMismatch(
                f"augmented data has {Z.shape[0]} rows, expected n+m = {n + m}"
            )
        return Z[:n], Z[n:]


# Type alias documenting the expected structure: for each of the s basis
# functions, a list of (input-factor, state-factor) product terms so that
# phi_i(x, u) = sum_j p_ij(u) * q_ij(x).
SeparableTermList = Sequence[Sequence[tuple]]


def eval_matrix(d, data: Array) -> Array:
    """Evaluate a dictionary on a data matrix, all columns at once.

    ``d`` is a :class:`StateDictionary` (data ``(n, N)``) or a
    :class:`NormalDictionary` (stacked data ``(n+m, N)``).  ``N = 0`` is
    legal and returns an empty ``(dim, 0)`` matrix.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if isinstance(d, NormalDictionary):
        return d.eval_aug(data)
    if d.domain_dim is not None and data.shape[0] != d.domain_dim:
        raise DimensionMismatch(
            f"data has {data.shape[0]} rows, dictionary domain is {d.domain_dim}"
        )
    N = data.shape[1]
    if N == 0:
        return np.zeros((d.dim, 0))
    out = np.asarray(d.fn(data), dtype=float)
    if out.shape != (d.dim, N):
        raise DimensionMismatch(f"dictionary returned {out.shape}, expected {(d.dim, N)}")
    return out


def control_independent_extension(h_coeffs, nd: NormalDictionary) -> Array:
    """Coefficients of ``h(x) * 1`` in the augmented basis ``Phi``.

    Because the top block of ``G(u)`` is the identity, the extension of
    ``h = h_coeffs' H`` is exactly ``[h_coeffs; 0]`` — the extended
    function evaluates independently of ``u``.
    """
    v = np.asarray(h_coeffs, dtype=float).reshape(-1)
    if v.shape != (nd.l,):
        raise DimensionMismatch(f"h_coeffs must have length l = {nd.l}, got {v.shape}")
    return np.concatenate([v, np.zeros(nd.s - nd.l)])


# ----------------------------------------------------------------------
# Separable decomposition and normality


def decompose_separable(terms: SeparableTermList, probe_states: Array,
                        tol: float = DEFAULT_RANK_TOL):
    """Factor product-term observables as ``Phi(x, u) = G(u) H'(x)``.

    Every function given as a finite sum of separated products
    ``phi_i(x,u) = sum_j p_ij(u) q_ij(x)`` lies in a space spanned by a
    common finite state basis.  The basis ``H'`` is recovered by a
    rank-revealing SVD of all state factors evaluated on probe points, and
    each row of ``G(u)`` re-expresses one ``phi_i`` in that basis.

    Parameters
    ----------
    terms : sequence of sequences of (p, q) callables
        ``p`` maps an input vector to a scalar, ``q`` a state vector.
    probe_states : array, shape (n, M)
        Probe points in general position; M must be at least the total
        term count, or the span cannot be certified.

    Returns
    -------
    G_eval : callable ``u -> (s, l')`` array
    H_prime : StateDictionary of dimension l' = rank of the state factors
    """
    probe_states = np.atleast_2d(np.asarray(probe_states, dtype=float))
    n, M = probe_states.shape
    flat_q = [q for term_list in terms for (_, q) in term_list]
    total_terms = len(flat_q)
    if total_terms == 0:
        raise ConfigError("empty term list")
    if M < total_terms:
        raise RankDeficientProbe(
            f"{M} probe points cannot certify a span of {total_terms} state factors; "
            "add probe points"
        )
    E = np.empty((total_terms, M))
    for t, q in enumerate(flat_q):
        for j in range(M):
            E[t, j] = float(q(probe_states[:, j]))
    U, sv, Vt = np.linalg.svd(E, full_matrices=False)
    rank = int(np.sum(sv > tol * (sv[0] if sv.size else 0.0)))
    if rank == 0:
        raise RankDeficientProbe("all state factors vanish on the probe points")
    if rank == M < total_terms:
        raise RankDeficientProbe(
            "probe evaluations are saturated (rank == number of probes); add probe points"
        )
    Ur = np.ascontiguousarray(U[:, :rank])

    def h_prime_fn(X: Array) -> Array:
        vals = np.empty((total_terms, X.shape[1]))
        for t, q in enumerate(flat_q):
            for j in range(X.shape[1]):
                vals[t, j] = float(q(X[:, j]))
        return Ur.T @ vals

    H_prime = StateDictionary(
        dim=rank,
        fn=h_prime_fn,
        names=tuple(f"h{k + 1}" for k in range(rank)),
        domain_dim=n,
    )

    # Row i of G(u): q_ij = (row t(i,j) of Ur) . H', so the p_ij(u) weights
    # combine those coordinate vectors.
    offsets = []
    pos = 0
    for term_list in terms:
        offsets.append(pos)
        pos += len(term_list)

    term_lists = [list(term_list) for term_list in terms]

    def G_eval(u) -> Array:
        u = np.asarray(u, dtype=float).reshape(-1)
        G = np.zeros((len(term_lists), rank))
        for i, term_list in enumerate(term_lists):
            base = offsets[i]
            for j, (p, _) in enumerate(term_list):
                G[i] += float(p(u)) * Ur[base + j]
        return G

    return G_eval, H_prime


def check_rank_condition(G_eval, u_samples, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Check full column rank of ``G(u)`` at each sampled input.

    An input fails when the smallest singular value of ``G(u)`` does not
    exceed ``tol`` times the largest.  Failing inputs delimit where
    pseudo-inverse model extraction is untrustworthy.
    """
    u_samples = list(u_samples)
    if not u_samples:
        raise ConfigError("need at least one input sample")
    failing = []
    for u in u_samples:
        G = np.atleast_2d(np.asarray(G_eval(u), dtype=float))
        sv = np.linalg.svd(G, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0 or sv[-1] <= tol * sv[0]:
            failing.append(u)
    return {"full_rank": not failing, "failing_inputs": failing}


def verify_normality(G_eval, u_samples, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Decide whether span{G(u) H(x)} admits a normal-form basis.

    Solves the stacked least-squares problem ``W G(u_i) = I`` over all
    sampled inputs.  A solution with (relative) residual at most ``tol``
    certifies normality *on the sampled inputs*: the rebased coefficient
    matrix ``E G(u)`` with ``E = [W; B]`` then has an identity top block.
    ``B`` completes ``W`` with an orthonormal basis of its row-space
    complement, so ``E`` is invertible.
    """
    u_samples = list(u_samples)
    if not u_samples:
        raise ConfigError("need at least one input sample")
    Gs = [np.atleast_2d(np.asarray(G_eval(u), dtype=float)) for u in u_samples]
    s, l = Gs[0].shape
    G_stack = np.hstack(Gs)
    I_stack = np.hstack([np.eye(l) for _ in Gs])
    W = I_stack @ np.linalg.pinv(G_stack)
    residual = float(np.linalg.norm(W @ G_stack - I_stack) / np.sqrt(len(Gs) * l))
    if residual > tol:
        return {"normal": False, "transform": None, "residual": residual}
    _, _, Vt = np.linalg.svd(W, full_matrices=True)
    B = Vt[l:]
    E = np.vstack([W, B])
    return {"normal": True, "transform": E, "residual": residual}


# ----------------------------------------------------------------------
# Parametric normal-form families with exact gradients
#
# All networks operate column-wise on (in_dim, N) matrices and implement
# reverse accumulation by hand: tiny models, full determinism, and a
# gradient contract that is tested against central finite differences.


def _exp_neg_abs(z: Array) -> Array:
    """``exp(-|z|)``, in one new array."""
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _softplus(z: Array) -> Array:
    """``log(1 + exp(z))`` without overflow: ``max(z, 0) + log1p(exp(-|z|))``."""
    e = _exp_neg_abs(z)
    np.log1p(e, out=e)
    a = np.maximum(z, 0.0)
    a += e
    return a


def _softplus_and_sigmoid(z: Array):
    """Softplus and its derivative, the sigmoid, from one ``e = exp(-|z|)``.

    The sigmoid is ``exp(min(z, 0)) / (1 + e)``: the numerator is ``1``
    for ``z >= 0`` and ``e`` below, so no exponent is ever positive and
    no mask is built.
    """
    e = _exp_neg_abs(z)
    a = np.maximum(z, 0.0)
    a += np.log1p(e)
    d = np.minimum(z, 0.0)
    np.exp(d, out=d)
    e += 1.0
    d /= e
    return a, d


def _sigmoid(z: Array) -> Array:
    """``1 / (1 + exp(-z))``, with the exponent never positive."""
    return _softplus_and_sigmoid(z)[1]


def _tanh_and_derivative(z: Array):
    t = np.tanh(z)
    return t, 1.0 - t**2


# name -> (activation, activation with its derivative).  A forward pass
# that will be differentiated caches the derivative in place of the
# pre-activation, so the backward pass only multiplies by it.
_ACTIVATIONS = {
    "softplus": (_softplus, _softplus_and_sigmoid),
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: (np.maximum(z, 0.0), (z > 0.0).astype(float))),
    "tanh": (np.tanh, _tanh_and_derivative),
}


class _LinearMap:
    """Linear feature model ``y = W t(x)`` for a fixed featurizer ``t``."""

    def __init__(self, featurize: Callable[[Array], Array], n_features: int,
                 out_dim: int, rng: np.random.Generator):
        self.featurize = featurize
        self.W = rng.standard_normal((out_dim, n_features)) / np.sqrt(n_features)

    def params_list(self):
        return [self.W]

    def forward(self, X: Array, grad: bool = False):
        T = self.featurize(X)
        return self.W @ T, T

    def backward(self, cache, Gout: Array):
        return [Gout @ cache.T]


class _MLP:
    """Plain fully connected network, hidden activations + linear output."""

    def __init__(self, in_dim: int, widths: Sequence[int], out_dim: int,
                 activation: str, rng: np.random.Generator):
        act = _ACTIVATIONS.get(activation)
        if act is None:
            raise ConfigError(f"unknown activation {activation!r}")
        self.act, self.act_and_deriv = act
        sizes = [in_dim, *widths, out_dim]
        self.Ws = []
        self.bs = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.Ws.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
            self.bs.append(np.zeros(fan_out))

    def params_list(self):
        out = []
        for W, b in zip(self.Ws, self.bs):
            out.extend([W, b])
        return out

    def forward(self, X: Array, grad: bool = False):
        """``(output, cache)``; the cache, for :meth:`backward`, only with ``grad``."""
        acts = [X]
        derivs = []
        h = X
        last = len(self.Ws) - 1
        for i, (W, b) in enumerate(zip(self.Ws, self.bs)):
            h = W @ h
            h += b[:, None]
            if i == last:
                break
            if grad:
                h, d = self.act_and_deriv(h)
                acts.append(h)
                derivs.append(d)
            else:
                h = self.act(h)
        return h, ((acts, derivs) if grad else None)

    def backward(self, cache, Gout: Array):
        acts, derivs = cache
        grads = [None] * (2 * len(self.Ws))
        g = Gout
        for i in range(len(self.Ws) - 1, -1, -1):
            if i != len(self.Ws) - 1:
                g = g * derivs[i]
            grads[2 * i] = g @ acts[i].T
            grads[2 * i + 1] = g.sum(axis=1)
            if i > 0:
                g = self.Ws[i].T @ g
        return grads


class _ResidualMLP:
    """Residual network: linear embed, additive blocks, linear head.

    Each block computes ``y <- y + W2 act(W1 y + b1) + b2``.
    """

    def __init__(self, in_dim: int, blocks: int, width: int, out_dim: int,
                 activation: str, rng: np.random.Generator):
        act = _ACTIVATIONS.get(activation)
        if act is None:
            raise ConfigError(f"unknown activation {activation!r}")
        self.act, self.act_and_deriv = act
        self.W0 = rng.standard_normal((width, in_dim)) * np.sqrt(2.0 / in_dim)
        self.b0 = np.zeros(width)
        self.blocks = []
        for _ in range(blocks):
            W1 = rng.standard_normal((width, width)) * np.sqrt(2.0 / width)
            b1 = np.zeros(width)
            W2 = rng.standard_normal((width, width)) * np.sqrt(2.0 / width) / np.sqrt(blocks)
            b2 = np.zeros(width)
            self.blocks.append([W1, b1, W2, b2])
        self.Wh = rng.standard_normal((out_dim, width)) * np.sqrt(2.0 / width)
        self.bh = np.zeros(out_dim)

    def params_list(self):
        out = [self.W0, self.b0]
        for W1, b1, W2, b2 in self.blocks:
            out.extend([W1, b1, W2, b2])
        out.extend([self.Wh, self.bh])
        return out

    def forward(self, X: Array, grad: bool = False):
        """``(output, cache)``; the cache, for :meth:`backward`, only with ``grad``."""
        # Sums are accumulated into the product just made, in the order
        # of ``y + W2 @ a + b2``, so no temporary the size of the data
        # is allocated for them.
        y = self.W0 @ X
        y += self.b0[:, None]
        block_caches = []
        for W1, b1, W2, b2 in self.blocks:
            z = W1 @ y
            z += b1[:, None]
            if grad:
                a, d = self.act_and_deriv(z)
                block_caches.append((y, d, a))
            else:
                a = self.act(z)
            y_next = W2 @ a
            y_next += y
            y_next += b2[:, None]
            y = y_next
        out = self.Wh @ y
        out += self.bh[:, None]
        return out, ((X, block_caches, y) if grad else None)

    def backward(self, cache, Gout: Array):
        X, block_caches, y_final = cache
        g_Wh = Gout @ y_final.T
        g_bh = Gout.sum(axis=1)
        gy = self.Wh.T @ Gout
        block_grads = []
        for (W1, b1, W2, b2), (y_in, d, a) in zip(reversed(self.blocks),
                                                  reversed(block_caches)):
            g_W2 = gy @ a.T
            g_b2 = gy.sum(axis=1)
            ga = W2.T @ gy
            gz = ga * d
            g_W1 = gz @ y_in.T
            g_b1 = gz.sum(axis=1)
            block_grads.append([g_W1, g_b1, g_W2, g_b2])
            gy = gy + W1.T @ gz
        g_W0 = gy @ X.T
        g_b0 = gy.sum(axis=1)
        grads = [g_W0, g_b0]
        for bg in reversed(block_grads):
            grads.extend(bg)
        grads.extend([g_Wh, g_bh])
        return grads


def _monomial_exponents(n_vars: int, degree: int):
    exps = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            e = [0] * n_vars
            for v in combo:
                e[v] += 1
            exps.append(tuple(e))
    return exps


def _monomial_name(exp) -> str:
    parts = []
    for i, p in enumerate(exp):
        if p == 1:
            parts.append(f"x{i + 1}")
        elif p > 1:
            parts.append(f"x{i + 1}^{p}")
    return "*".join(parts) if parts else "1"


def monomial_featurizer(n_vars: int, degree: int):
    """Return (featurize, names): all monomials of total degree <= degree."""
    exps = _monomial_exponents(n_vars, degree)

    def featurize(X: Array) -> Array:
        N = X.shape[1]
        out = np.ones((len(exps), N))
        for r, exp in enumerate(exps):
            for i, p in enumerate(exp):
                if p:
                    out[r] *= X[i] ** p
        return out

    return featurize, [_monomial_name(e) for e in exps]


class TrainableNormalDictionary(NormalDictionary):
    """A normal-form dictionary whose free entries are parameterized maps.

    Structure (all enforced, never learned):

    * the first ``len(fixed_head)`` rows of ``H`` are the selected state
      coordinates;
    * the top block of ``G(u)`` is the identity.

    The remaining rows of ``H`` come from ``h_net`` and the entries of
    ``Gtilde(u)`` from ``g_net``, both exposed through one flat parameter
    vector with exact reverse-accumulation gradients.

    Every evaluation goes through one private forward, which runs each
    network once and returns the H and Gtilde blocks with their caches,
    and every gradient through one private backward.  :meth:`eval_aug`,
    :meth:`eval_pair` (inherited; it runs the networks through ``H`` and
    ``Gtilde``) and :meth:`vjp_aug` use them on data blocks; a training step
    (:func:`kooplift.learning.loss_gradient`) uses them once for ``Z``
    and ``Z+`` together: H on both state blocks, and Gtilde once on the
    input the augmented map holds, so one forward and one backward per
    step.

    ``x_scale`` / ``u_scale`` premultiply incoming coordinates and the
    fixed-head rows are divided by ``x_scale`` again, so a dictionary
    trained on scaled data can be rebased to original coordinates as a
    pure basis change (see :meth:`with_input_scaling`).
    """

    def __init__(self, *, kind: str, state_dim: int, input_dim: int, s: int, l: int,
                 fixed_head: Sequence[int], h_net, g_net, spec: dict,
                 x_scale=None, u_scale=None):
        self.kind = kind
        self._state_dim = state_dim
        self._input_dim = input_dim
        self._s = s
        self._l = l
        self.fixed_head = tuple(int(i) for i in fixed_head)
        self.h_net = h_net
        self.g_net = g_net
        self.spec = dict(spec)
        self.x_scale = np.ones(state_dim) if x_scale is None else np.asarray(x_scale, float)
        self.u_scale = np.ones(input_dim) if u_scale is None else np.asarray(u_scale, float)
        if any(i < 0 or i >= state_dim for i in self.fixed_head):
            raise ConfigError("fixed_head indices must be valid state coordinates")
        if len(self.fixed_head) > l:
            raise ConfigError("fixed_head longer than dictionary dimension l")
        head_names = tuple(f"x{i + 1}" for i in self.fixed_head)
        free_names = tuple(f"{kind}{j + 1}" for j in range(l - len(self.fixed_head)))
        H = StateDictionary(dim=l, fn=self._eval_H, names=head_names + free_names,
                            domain_dim=state_dim)
        Gt = None
        if s > l:
            Gt = InputMatrixFunction(rows=s - l, cols=l, fn=self._eval_Gt,
                                     domain_dim=input_dim)
        super().__init__(H, Gt, state_dim, input_dim)

    # -- parameter vector --------------------------------------------

    def _param_arrays(self):
        arrays = []
        if self.h_net is not None:
            arrays.extend(self.h_net.params_list())
        if self.g_net is not None:
            arrays.extend(self.g_net.params_list())
        return arrays

    @property
    def n_params(self) -> int:
        return sum(a.size for a in self._param_arrays())

    def get_params(self) -> Array:
        arrays = self._param_arrays()
        if not arrays:
            return np.zeros(0)
        return np.concatenate([a.ravel() for a in arrays])

    def set_params(self, vec) -> None:
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.size != self.n_params:
            raise DimensionMismatch(f"expected {self.n_params} parameters, got {vec.size}")
        pos = 0
        for a in self._param_arrays():
            a[...] = vec[pos : pos + a.size].reshape(a.shape)
            pos += a.size

    # -- evaluation ---------------------------------------------------

    def _head_rescale(self) -> Array:
        t = np.ones(self._l)
        for r, idx in enumerate(self.fixed_head):
            t[r] = 1.0 / self.x_scale[idx]
        return t

    def _forward(self, X: Array | None, U: Array | None, grad: bool = False):
        """One pass of both networks: ``(Hm, Gt, caches)``.

        ``Hm`` is H at the columns of ``X``, shape ``(l, Nx)``; ``Gt`` is
        Gtilde at the columns of ``U``, shape ``(s-l, l, Nu)``.  Either is
        None when its argument is (``Gt`` also when ``s == l``).  With
        ``grad``, ``caches`` holds what :meth:`_backward` needs from the two
        networks, the activation derivatives included; without it the
        networks keep no caches and compute no derivatives.
        """
        t = self._head_rescale()
        Hm = Gt = h_cache = g_cache = None
        if X is not None:
            Xs = X * self.x_scale[:, None]
            rows = [Xs[list(self.fixed_head)]] if self.fixed_head else []
            if self.h_net is not None:
                out, h_cache = self.h_net.forward(Xs, grad)
                rows.append(out)
            Hm = (np.vstack(rows) if rows else np.zeros((0, X.shape[1]))) * t[:, None]
        if U is not None and self.g_net is not None:
            flat, g_cache = self.g_net.forward(U * self.u_scale[:, None], grad)
            Gt = flat.reshape(self._s - self._l, self._l, U.shape[1]) / t[None, :, None]
        return Hm, Gt, (h_cache, g_cache)

    def _backward(self, fwd, Wbar: Array) -> Array:
        """Gradient of ``sum(Wbar * self._stack(Hm, Gt))`` with respect to the parameters.

        Exact reverse accumulation through the normal-form structure: the
        upstream signal splits into the top block (direct H gradient) and
        the bottom block, which distributes onto both ``H`` (through
        ``Gtilde(u)``) and ``Gtilde`` (through outer products with H,
        summed over the column groups that share an input).
        """
        Hm, Gt, (h_cache, g_cache) = fwd
        t = self._head_rescale()
        l = self._l
        dH = Wbar[:l]
        grads = []
        if Gt is not None:
            Nu = Gt.shape[2]
            c = Hm.shape[1] // max(Nu, 1)
            W_bot = Wbar[l:].reshape(self._s - l, c, Nu)
            dH = dH + np.einsum("ijN,icN->jcN", Gt, W_bot).reshape(l, Hm.shape[1])
            dGt = np.einsum("icN,jcN->ijN", W_bot, Hm.reshape(l, c, Nu))
        # Chain through the head rescale, then drop the frozen head rows.
        if self.h_net is not None:
            grads.extend(self.h_net.backward(h_cache, (dH * t[:, None])[len(self.fixed_head):]))
        if Gt is not None:
            grads.extend(self.g_net.backward(g_cache, (dGt / t[None, :, None]).reshape(-1, Nu)))
        if not grads:
            return np.zeros(0)
        return np.concatenate([g.ravel() for g in grads])

    def _eval_H(self, X: Array) -> Array:
        return self._forward(X, None)[0]

    def _eval_Gt(self, U: Array) -> Array:
        """Gtilde stacked over columns: shape (s-l, l, N)."""
        return self._forward(None, U)[1]

    # One pass of each network, one after the other, so the caches of one
    # are freed before the other runs: ``Z`` may be a whole dataset.  Bound
    # here too, because the benchmark's tracer looks methods up per class.
    eval_aug = NormalDictionary.eval_aug

    def vjp_aug(self, Z: Array, Wbar: Array) -> Array:
        """Gradient of ``sum(Wbar * Phi(Z))`` with respect to the parameters.

        One :meth:`_forward` on ``Z`` and one :meth:`_backward` of
        ``Wbar``.  Training does not come through here: its step runs the
        same two functions once on ``Z`` and ``Z+`` together.
        """
        fwd = self._forward(*self._split(Z), grad=True)
        return self._backward(fwd, np.asarray(Wbar, dtype=float))

    def with_input_scaling(self, x_scale, u_scale) -> "TrainableNormalDictionary":
        """Rebase onto unscaled coordinates.

        The returned dictionary shares the parameter arrays and satisfies
        ``Phi_new(x, u) = D Phi_old(x_scale*x, u_scale*u)`` for the
        invertible block-diagonal ``D`` that resets the fixed head to the
        raw state — a basis change, so the consistency index is unchanged.
        """
        return TrainableNormalDictionary(
            kind=self.kind,
            state_dim=self._state_dim,
            input_dim=self._input_dim,
            s=self._s,
            l=self._l,
            fixed_head=self.fixed_head,
            h_net=self.h_net,
            g_net=self.g_net,
            spec=self.spec,
            x_scale=np.asarray(x_scale, float) * self.x_scale,
            u_scale=np.asarray(u_scale, float) * self.u_scale,
        )

    @property
    def descriptor(self) -> dict:
        """The family, its spec, head and scales, and the parameters as they are now."""
        return {
            "kind": self.kind,
            "spec": self.spec,
            "fixed_head": list(self.fixed_head),
            "fixed_head_tags": [f"x{i + 1}" for i in self.fixed_head],
            "x_scale": [float(v) for v in self.x_scale],
            "u_scale": [float(v) for v in self.u_scale],
            "parameters": [float(v) for v in self.get_params()],
        }


def _build_net(kind: str, in_dim: int, out_dim: int, spec: dict, rng: np.random.Generator):
    if out_dim == 0:
        return None
    if kind == "polynomial":
        degree = int(spec["total_degree"])
        if degree < 1:
            raise ConfigError("polynomial total_degree must be >= 1")
        featurize, _ = monomial_featurizer(in_dim, degree)
        n_features = len(_monomial_exponents(in_dim, degree))
        return _LinearMap(featurize, n_features, out_dim, rng)
    if kind == "mlp":
        widths = [int(w) for w in spec["widths"]]
        if not widths or any(w < 1 for w in widths):
            raise ConfigError("mlp widths must be positive")
        return _MLP(in_dim, widths, out_dim, spec["activation"], rng)
    # residual_mlp: parametric_family has rejected every other kind.
    blocks, width = int(spec["blocks"]), int(spec["width"])
    if blocks < 1 or width < 1:
        raise ConfigError("residual_mlp blocks and width must be positive")
    return _ResidualMLP(in_dim, blocks, width, out_dim, spec["activation"], rng)


def parametric_family(
    kind: str,
    *,
    state_dim: int,
    input_dim: int,
    s: int,
    l: int,
    fixed_head="state",
    seed: int = 0,
    total_degree: int | None = None,
    widths: Sequence[int] | None = None,
    blocks: int | None = None,
    width: int | None = None,
    activation: str = "softplus",
) -> TrainableNormalDictionary:
    """Construct a trainable normal-form dictionary.

    Parameters
    ----------
    kind : {"polynomial", "mlp", "residual_mlp"}
        ``polynomial`` uses monomial features up to ``total_degree``
        (entries of both H and Gtilde are polynomials); ``mlp`` uses fully
        connected networks with the given hidden ``widths``;
        ``residual_mlp`` uses ``blocks`` residual blocks of ``width``
        neurons each.
    s, l : int
        Augmented and state dictionary dimensions, ``s >= l``.
    fixed_head : "state", sequence of int, or None
        State-coordinate indices frozen as the first rows of H.  The
        default freezes the full state vector, the usual practice so that
        lifted rollouts read states directly off the head.
    activation : {"softplus", "relu", "tanh"}
        ``softplus`` (default) keeps the family smooth so that gradient
        checks need no kink avoidance; ``relu`` is the conventional choice
        at larger scale.
    seed : int
        Deterministic parameter initialization.
    """
    if s < l or l < 1:
        raise ConfigError(f"need s >= l >= 1, got s={s}, l={l}")
    if fixed_head == "state":
        fixed_head = list(range(state_dim))
    fixed_head = [int(i) for i in (fixed_head or [])]
    if len(fixed_head) > l:
        raise ConfigError("fixed_head longer than l")
    spec = {"activation": activation}
    if kind == "polynomial":
        if total_degree is None:
            raise ConfigError("polynomial family needs total_degree")
        spec["total_degree"] = int(total_degree)
    elif kind == "mlp":
        if widths is None:
            raise ConfigError("mlp family needs widths")
        spec["widths"] = [int(w) for w in widths]
    elif kind == "residual_mlp":
        if blocks is None or width is None:
            raise ConfigError("residual_mlp family needs blocks and width")
        spec["blocks"], spec["width"] = int(blocks), int(width)
    else:
        raise ConfigError(f"unknown family kind {kind!r}")

    rng = np.random.default_rng(seed)
    h_net = _build_net(kind, state_dim, l - len(fixed_head), spec, rng)
    g_net = _build_net(kind, input_dim, (s - l) * l, spec, rng) if s > l else None
    return TrainableNormalDictionary(
        kind=kind,
        state_dim=state_dim,
        input_dim=input_dim,
        s=s,
        l=l,
        fixed_head=fixed_head,
        h_net=h_net,
        g_net=g_net,
        spec={**spec, "seed": seed},
    )


# ----------------------------------------------------------------------
# Builtin dictionaries for the polynomial example system

# The builtin dictionary's name: its descriptor ``kind`` and the CLI's
# ``--dictionary`` value.
EXAMPLE_POLY_BASIS = "example_poly_basis"


def example_poly_state_basis() -> StateDictionary:
    """The state basis ``H = [x1, x2, x1^2, 1]`` of the builtin example."""

    def fn(X: Array) -> Array:
        x1, x2 = X
        return np.vstack([x1, x2, x1**2, np.ones_like(x1)])

    return StateDictionary(dim=4, fn=fn, names=("x1", "x2", "x1^2", "1"), domain_dim=2)


def example_poly_normal_basis(truncate: Sequence[str] = ()) -> NormalDictionary:
    """The 8-function invariant augmented basis of the builtin example.

    ``Phi = [x1, x2, x1^2, 1, x1*u, u, u^2, sin(u)]`` in normal form over
    ``H = [x1, x2, x1^2, 1]``.  ``truncate`` drops named bottom-block rows
    (any of ``"x1*u", "u", "u^2", "sin(u)"``), producing deliberately
    non-invariant dictionaries for diagnostics and tests.
    """
    H = example_poly_state_basis()
    # Each bottom row has one nonzero entry: (column of H, function of u).
    row_defs = {
        "x1*u": (0, lambda uu: uu),
        "u": (3, lambda uu: uu),
        "u^2": (3, lambda uu: uu**2),
        "sin(u)": (3, np.sin),
    }
    keep = [name for name in row_defs if name not in set(truncate)]
    unknown = set(truncate) - set(row_defs)
    if unknown:
        raise ConfigError(f"unknown bottom-block rows {sorted(unknown)}")
    Gt = None
    if keep:
        def gt_fn(U: Array) -> Array:
            uu = U[0]
            G = np.zeros((len(keep), 4, uu.size))
            for r, name in enumerate(keep):
                col, f = row_defs[name]
                G[r, col] = f(uu)
            return G

        Gt = InputMatrixFunction(rows=len(keep), cols=4, fn=gt_fn, domain_dim=1)
    descriptor = {"kind": EXAMPLE_POLY_BASIS,
                  "truncate": [name for name in row_defs if name not in keep]}
    return NormalDictionary(H, Gt, state_dim=2, input_dim=1, descriptor=descriptor)


# ----------------------------------------------------------------------
# Serialization


DICTIONARY_FORMAT = "kooplift-dictionary-v1"


def dictionary_to_json(nd: NormalDictionary) -> dict:
    """JSON-ready description of a dictionary: its ``descriptor`` with format and dims."""
    if nd.descriptor is None:
        raise ConfigError("only parametric and builtin dictionaries are serializable")
    dims = {"state_dim": nd.state_dim, "input_dim": nd.input_dim, "s": nd.s, "l": nd.l}
    return {"format": DICTIONARY_FORMAT, "dims": dims, **nd.descriptor}


def dictionary_from_json(obj: dict) -> NormalDictionary:
    """Rebuild a dictionary from :func:`dictionary_to_json` output."""
    if obj.get("format") != DICTIONARY_FORMAT:
        raise ConfigError("not a kooplift dictionary JSON object")
    if "kind" not in obj:
        raise ConfigError("kooplift dictionary JSON object has no 'kind' key")
    kind = obj["kind"]
    if kind == EXAMPLE_POLY_BASIS:
        return example_poly_normal_basis(truncate=obj.get("truncate", ()))
    dims = obj["dims"]
    spec = obj["spec"]
    nd = parametric_family(
        kind,
        state_dim=dims["state_dim"],
        input_dim=dims["input_dim"],
        s=dims["s"],
        l=dims["l"],
        fixed_head=obj["fixed_head"],
        seed=spec.get("seed", 0),
        total_degree=spec.get("total_degree"),
        widths=spec.get("widths"),
        blocks=spec.get("blocks"),
        width=spec.get("width"),
        activation=spec.get("activation", "softplus"),
    )
    nd.set_params(np.asarray(obj["parameters"], dtype=float))
    return nd.with_input_scaling(obj.get("x_scale", np.ones(dims["state_dim"])),
                                 obj.get("u_scale", np.ones(dims["input_dim"])))


def save_dictionary(nd: NormalDictionary, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(dictionary_to_json(nd), indent=2, sort_keys=True) + "\n")
    return path


def load_dictionary(path) -> NormalDictionary:
    return dictionary_from_json(json.loads(Path(path).read_text()))

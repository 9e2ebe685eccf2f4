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
gradients, used by the dictionary-learning module.  Builtin and parametric
dictionaries save and load as JSON files (:func:`save_dictionary`,
:func:`load_dictionary`) through the one checker, reader and writer of
:mod:`kooplift._jsonfile`; the tables they are checked against,
:data:`FAMILIES` and a dictionary file's keys, stay here beside the
families they build.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._jsonfile import (
    FILE_KEYS,
    check_json,
    equal,
    integer,
    json_array,
    list_of,
    numeric,
    one_of,
    read_json,
    string,
    write_json,
)
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
# phi_i(x, u) = sum_j p_ij(u) * q_ij(x).  Factors map column blocks, as a
# state dictionary's ``fn`` does: ``p(U)`` is ``(N,)`` for ``U`` of shape
# ``(m, N)``, ``q(X)`` likewise for ``X`` of shape ``(n, N)``.
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


def _factor_rows(factors, Y: Array) -> Array:
    """Each column-block factor on ``Y``, one row per factor: ``(len(factors), N)``.

    A factor maps ``(k, N)`` to ``(N,)``; a scalar result (a constant
    factor) broadcasts along the row.
    """
    rows = np.empty((len(factors), Y.shape[1]))
    for t, f in enumerate(factors):
        rows[t] = f(Y)
    return rows


def decompose_separable(terms: SeparableTermList, probe_states: Array,
                        tol: float = DEFAULT_RANK_TOL):
    """Factor product-term observables as ``Phi(x, u) = G(u) H'(x)``.

    Every function given as a finite sum of separated products
    ``phi_i(x,u) = sum_j p_ij(u) q_ij(x)`` lies in a space spanned by a
    common finite state basis.  The basis ``H'`` is recovered by a
    rank-revealing SVD ``[q_t(probes)] = U S V'`` of all state factors
    evaluated on probe points: ``H' = Ur' [q_t(x)]`` with ``Ur`` the
    leading ``l'`` columns of ``U``, so ``q_t = (row t of Ur) H'``, and
    row i of ``G(u)`` sums those rows weighted by the ``p_ij(u)``.

    Parameters
    ----------
    terms : sequence of sequences of (p, q) callables
        Column-block factors: ``p`` maps an ``(m, N)`` block of inputs to
        ``(N,)``, ``q`` an ``(n, N)`` block of states.
    probe_states : array, shape (n, M)
        Probe points in general position; M must be at least the total
        term count, or the span cannot be certified.

    Returns
    -------
    G : InputMatrixFunction, ``(s, l')`` at each input
    H_prime : StateDictionary of dimension l' = rank of the state factors
    """
    probe_states = np.atleast_2d(np.asarray(probe_states, dtype=float))
    n, M = probe_states.shape
    ps = [p for tl in terms for p, _ in tl]
    qs = [q for tl in terms for _, q in tl]
    if not qs:
        raise ConfigError("empty term list")
    if M < len(qs):
        raise RankDeficientProbe(
            f"{M} probe points cannot certify a span of {len(qs)} state factors; "
            "add probe points"
        )
    U, sv, _ = np.linalg.svd(_factor_rows(qs, probe_states), full_matrices=False)
    rank = int(np.sum(sv > tol * sv[0]))
    if rank == 0:
        raise RankDeficientProbe("all state factors vanish on the probe points")
    Ur = np.ascontiguousarray(U[:, :rank])
    H_prime = StateDictionary(
        dim=rank,
        fn=lambda states: Ur.T @ _factor_rows(qs, states),
        names=tuple(f"h{k + 1}" for k in range(rank)),
        domain_dim=n,
    )
    # C[i, t] is row t of Ur when product term t belongs to phi_i, else 0.
    owner = np.repeat(np.arange(len(terms)), [len(tl) for tl in terms])
    C = np.zeros((len(terms), len(qs), rank))
    C[owner, np.arange(len(qs))] = Ur
    G = InputMatrixFunction(
        rows=len(terms),
        cols=rank,
        fn=lambda inputs: np.tensordot(C, _factor_rows(ps, inputs), axes=(1, 0)),
    )
    return G, H_prime


def _sample_block(input_samples) -> Array:
    """``input_samples`` as a float ``(m, N)`` block, one sample per column.

    Only a 2-D ndarray is taken.  A list of per-sample vectors would read
    as one sample of many coordinates, so it is rejected, not reinterpreted.
    """
    if not isinstance(input_samples, np.ndarray) or input_samples.ndim != 2:
        raise DimensionMismatch("input samples must be an (m, N) ndarray, one sample per column")
    if input_samples.shape[1] == 0:
        raise ConfigError("need at least one input sample")
    return input_samples.astype(float, copy=False)


def _coefficient_stack(G, U: Array) -> Array:
    """``G(u)`` at every column of the ``(m, N)`` block ``U``, shape ``(N, s, l)``.

    ``G`` is an :class:`InputMatrixFunction` or a :class:`NormalDictionary`,
    which stands for its ``[I; Gtilde(u)]``.
    """
    if not isinstance(G, NormalDictionary):
        return G.batch(U).transpose(2, 0, 1)
    blocks = [np.broadcast_to(np.eye(G.l), (U.shape[1], G.l, G.l))]
    if G.Gtilde is not None:
        blocks.append(G.Gtilde.batch(U).transpose(2, 0, 1))
    return np.concatenate(blocks, axis=1)


def check_rank_condition(G, input_samples: Array, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Check full column rank of ``G(u)`` at each sampled input.

    ``input_samples`` is an ``(m, N)`` ndarray, one input per column.  An
    input fails when the smallest singular value of ``G(u)`` does not
    exceed ``tol`` times the largest.  One stacked SVD covers all inputs.
    ``failing_inputs`` holds the failing columns, shape ``(m, k)``; they
    delimit where pseudo-inverse model extraction is untrustworthy.
    """
    U = _sample_block(input_samples)
    Gs = _coefficient_stack(G, U)
    sv = np.linalg.svd(Gs, compute_uv=False)
    bad = (sv[:, -1] <= tol * sv[:, 0]) | (Gs.shape[1] < Gs.shape[2])
    return {"full_rank": not bad.any(), "failing_inputs": U[:, bad]}


def verify_normality(G, input_samples: Array, tol: float = DEFAULT_RANK_TOL) -> dict:
    """Decide whether span{G(u) H(x)} admits a normal-form basis.

    Solves the stacked least-squares problem ``W G(u_i) = I`` over the
    sampled inputs, the columns of the ``(m, N)`` ndarray
    ``input_samples``.  A solution with (relative) residual at most
    ``tol`` certifies normality *on the sampled inputs*: the rebased
    coefficient matrix ``E G(u)`` with ``E = [W; B]`` then has an
    identity top block.  ``B`` completes ``W`` with an orthonormal basis
    of its row-space complement, so ``E`` is invertible.
    """
    Gs = _coefficient_stack(G, _sample_block(input_samples))
    N, s, l = Gs.shape
    G_stack = Gs.transpose(1, 0, 2).reshape(s, N * l)
    I_stack = np.tile(np.eye(l), N)
    W = I_stack @ np.linalg.pinv(G_stack)
    residual = float(np.linalg.norm(W @ G_stack - I_stack) / np.sqrt(N * l))
    if residual > tol:
        return {"normal": False, "transform": None, "residual": residual}
    _, _, Vt = np.linalg.svd(W, full_matrices=True)
    return {"normal": True, "transform": np.vstack([W, Vt[l:]]), "residual": residual}


def normal_form_dictionary(terms: SeparableTermList, probe_states: Array,
                           input_samples: Array) -> NormalDictionary:
    """The normal-form dictionary ``[I; Gtilde(u)] H'(x)`` spanned by product terms.

    Chains the three steps: :func:`decompose_separable` gives
    ``Phi = G(u) H'(x)``, :func:`check_rank_condition` and
    :func:`verify_normality` check ``G`` at the sampled inputs (the
    columns of ``input_samples``, an ``(m, N)`` ndarray whose ``m`` is
    the input dimension of the result), and the transform ``E = [W; B]``
    rebases ``Phi`` to ``E Phi = [I; B G(u)] H'(x)``, an invertible change
    of basis of the same span.  The result has ``H = H'`` and
    ``Gtilde(u) = B G(u)``.  All three steps use ``DEFAULT_RANK_TOL``;
    callers who need other cutoffs chain the three functions themselves.

    Raises :class:`RankDeficientProbe` when there are fewer probes than
    state factors or every factor vanishes on them, and
    :class:`ConfigError` naming the check when ``G(u)`` loses column rank
    at a sample or the span is not normal on the samples.  The dictionary
    is built from callables, so it has no descriptor: neither it nor the
    models extracted from it serialize.
    """
    G, H = decompose_separable(terms, probe_states)
    U = _sample_block(input_samples)
    rank = check_rank_condition(G, U)
    if not rank["full_rank"]:
        raise ConfigError("rank condition fails: G(u) loses column rank at input "
                          f"{rank['failing_inputs'][:, 0].tolist()}")
    normality = verify_normality(G, U)
    if not normality["normal"]:
        raise ConfigError("normality check fails: no W has W G(u) = I on the samples "
                          f"(residual {normality['residual']:.3e})")
    B = normality["transform"][H.dim:]
    Gtilde = None
    if len(B):
        Gtilde = InputMatrixFunction(
            rows=len(B),
            cols=H.dim,
            fn=lambda inputs: np.tensordot(B, G.fn(inputs), axes=1),
            domain_dim=U.shape[0],
        )
    return NormalDictionary(H, Gtilde, state_dim=H.domain_dim, input_dim=U.shape[0])


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


class _DenseNet:
    """A stack of dense layers on ``(in_dim, N)`` columns.

    Each layer is a tuple ``(W, b, act, skip)``.  Layer ``i`` maps its
    input ``h_i`` to ``act(W h_i + h_skip + b)``: ``h_skip`` is the input
    of the earlier layer ``skip``, added when ``skip`` is not None; ``b``
    may be None; ``act`` is an entry of ``_ACTIVATIONS`` or None for a
    linear layer.  An optional ``featurize`` maps the data to the first
    layer's input.  The ``size`` weights are laid out as :meth:`views`
    says; :func:`_one_vector` moves them into a vector that the layers
    then view.
    """

    def __init__(self, layers, featurize: Callable[[Array], Array] | None = None):
        self.layers = layers
        self.featurize = featurize
        self.size = sum(W.size + (0 if b is None else b.size) for W, b, _, _ in layers)
        self._skipped = {skip for *_, skip in layers if skip is not None}

    def views(self, vec: Array) -> list:
        """``(W, b)`` of each layer as reshaped views of the head of ``vec``.

        Each layer's ``W``, then its ``b``, layer after layer.
        """
        out, pos = [], 0
        for W, b, _, _ in self.layers:
            Wv = vec[pos:pos + W.size].reshape(W.shape)
            pos += W.size
            bv = None if b is None else vec[pos:pos + b.size]
            pos += 0 if b is None else b.size
            out.append((Wv, bv))
        return out

    def forward(self, X: Array, grad: bool = False):
        """``(output, cache)``; the cache, for :meth:`backward`, only with ``grad``.

        Without ``grad`` only the layer inputs a later skip reads are kept.
        """
        h = X if self.featurize is None else self.featurize(X)
        inputs, derivs = [], []
        for i, (W, b, act, skip) in enumerate(self.layers):
            inputs.append(h if grad or i in self._skipped else None)
            # Sums are accumulated into the product just made, in the order
            # of ``W h + h_skip + b``, so no temporary the size of the data
            # is allocated for them.
            h = W @ h
            if skip is not None:
                h += inputs[skip]
            if b is not None:
                h += b[:, None]
            d = None
            if act is not None:
                h, d = act[1](h) if grad else (act[0](h), None)
            derivs.append(d)
        return h, ((inputs, derivs) if grad else None)

    def backward(self, cache, Gout: Array, grad: Array) -> None:
        """Write the gradient of ``sum(Gout * output)`` into ``grad``, laid out as :meth:`views`."""
        inputs, derivs = cache
        skip_grads = {}
        g = Gout
        for i, (dW, db) in reversed(list(enumerate(self.views(grad)))):
            W, _, _, skip = self.layers[i]
            if derivs[i] is not None:
                g = g * derivs[i]
            if db is not None:
                db[...] = g.sum(axis=1)
            dW[...] = g @ inputs[i].T
            if skip is not None:
                skip_grads[skip] = g
            if i in skip_grads:  # the input of layer i also feeds a later skip
                g = skip_grads.pop(i) + W.T @ g
            elif i > 0:
                g = W.T @ g


def _one_vector(*nets) -> Array:
    """One new vector of the weights of ``nets``; their layers then hold views of it.

    The vector holds each net's weights as :meth:`_DenseNet.views` lays
    them out, net after net (None stands for no net), with the values the
    layers held.  From then on the vector is the only store of the
    weights: an edit of it in place is an edit of the networks.
    """
    nets = [net for net in nets if net is not None]
    theta = np.concatenate([np.zeros(0)] + [p.ravel() for net in nets
                                            for W, b, _, _ in net.layers
                                            for p in (W, b) if p is not None])
    pos = 0
    for net in nets:
        net.layers = [(*wb, act, skip) for wb, (_, _, act, skip)
                      in zip(net.views(theta[pos:]), net.layers)]
        pos += net.size
    return theta


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


class _Nets:
    """What a trainable dictionary evaluates through: its networks, head and scales.

    ``h_net`` gives the free rows of H and ``g_net`` the entries of
    Gtilde (either may be None).  The first ``len(fixed_head)`` rows of
    H are those state coordinates; ``x_scale`` and ``u_scale``
    premultiply incoming coordinates and the head rows are divided by
    ``x_scale`` again.  The object holds no reference to a dictionary:
    ``H`` and ``Gtilde`` of a :class:`TrainableNormalDictionary` call
    :meth:`eval_H` and :meth:`eval_Gt` of it, so the dictionary is freed
    as soon as its last reference goes.
    """

    def __init__(self, h_net, g_net, fixed_head: tuple, x_scale: Array, u_scale: Array,
                 s: int, l: int):
        self.h_net = h_net
        self.g_net = g_net
        self.fixed_head = fixed_head
        self.x_scale = x_scale
        self.u_scale = u_scale
        self.s = s
        self.l = l
        self.size = sum(net.size for net in (h_net, g_net) if net is not None)
        # H's rows are multiplied by t: 1 / x_scale on the head, 1 elsewhere.
        self.t = np.ones(l)
        for r, idx in enumerate(fixed_head):
            self.t[r] = 1.0 / x_scale[idx]

    def forward(self, X: Array | None, U: Array | None, grad: bool = False):
        """One pass of both networks: ``(Hm, Gt, caches)``.

        ``Hm`` is H at the columns of ``X``, shape ``(l, Nx)``; ``Gt`` is
        Gtilde at the columns of ``U``, shape ``(s-l, l, Nu)``.  Either is
        None when its argument is (``Gt`` also when ``s == l``).  With
        ``grad``, ``caches`` holds what :meth:`backward` needs from the two
        networks, the activation derivatives included; without it the
        networks keep no caches and compute no derivatives.
        """
        t = self.t
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
            Gt = flat.reshape(self.s - self.l, self.l, U.shape[1]) / t[None, :, None]
        return Hm, Gt, (h_cache, g_cache)

    def backward(self, fwd, Wbar: Array) -> Array:
        """Gradient of ``sum(Wbar * Phi)`` with respect to the parameters.

        ``Phi = [Hm; Gtilde Hm]`` is stacked from ``fwd = (Hm, Gt, caches)``
        as :meth:`NormalDictionary._stack` stacks it.  Exact reverse
        accumulation through the normal-form structure: the upstream
        signal splits into the top block (direct H gradient) and the
        bottom block, which distributes onto both ``H`` (through
        ``Gtilde(u)``) and ``Gtilde`` (through outer products with H,
        summed over the column groups that share an input).  Each network
        writes its layers' gradients into its slice of one vector, laid
        out like the dictionary's ``theta``.
        """
        Hm, Gt, (h_cache, g_cache) = fwd
        t = self.t
        l = self.l
        dH = Wbar[:l]
        grad = np.zeros(self.size)
        if Gt is not None:
            Nu = Gt.shape[2]
            c = Hm.shape[1] // max(Nu, 1)
            W_bot = Wbar[l:].reshape(self.s - l, c, Nu)
            dH = dH + np.einsum("ijN,icN->jcN", Gt, W_bot).reshape(l, Hm.shape[1])
            dGt = np.einsum("icN,jcN->ijN", W_bot, Hm.reshape(l, c, Nu))
        # Chain through the head rescale, then drop the frozen head rows.
        if self.h_net is not None:
            self.h_net.backward(h_cache, (dH * t[:, None])[len(self.fixed_head):], grad)
        if Gt is not None:
            self.g_net.backward(g_cache, (dGt / t[None, :, None]).reshape(-1, Nu),
                                grad[grad.size - self.g_net.size:])
        return grad

    def eval_H(self, X: Array) -> Array:
        return self.forward(X, None)[0]

    def eval_Gt(self, U: Array) -> Array:
        """Gtilde stacked over columns: shape (s-l, l, N)."""
        return self.forward(None, U)[1]


class TrainableNormalDictionary(NormalDictionary):
    """A normal-form dictionary whose free entries are parameterized maps.

    Structure (all enforced, never learned):

    * the first ``len(fixed_head)`` rows of ``H`` are the selected state
      coordinates;
    * the top block of ``G(u)`` is the identity.

    The remaining rows of ``H`` come from ``h_net`` and the entries of
    ``Gtilde(u)`` from ``g_net``, with exact reverse-accumulation
    gradients.  Their weights live in one flat vector, ``theta``: the
    ``h_net`` weights, then the ``g_net`` ones, each layer's ``W`` and
    ``b`` a reshaped view of it (:func:`_one_vector`).  An edit of
    ``theta`` in place, such as an Adam step, is therefore an edit of
    every copy that shares it; :meth:`get_params` returns a copy and
    :meth:`set_params` writes into it.  ``copy.deepcopy`` and pickle copy
    each view on its own and so break the sharing: copy a dictionary
    through :func:`dictionary_to_json` and :func:`dictionary_from_json`.

    The two networks, the fixed head, the scales, ``s`` and ``l`` are
    held in one private object, ``_nets``, with the one forward that every
    evaluation runs (each network once, returning the H and Gtilde blocks
    with their caches) and the one backward that every gradient runs.
    ``H`` and ``Gtilde`` hold that object's evaluation functions, not the
    dictionary, so no dictionary is in a reference cycle and each is freed
    as soon as its last reference goes.  :meth:`eval_aug`,
    :meth:`eval_pair` (inherited; it runs the networks through ``H`` and
    ``Gtilde``) and :meth:`vjp_aug` use the forward and backward on data
    blocks; a training step (:func:`kooplift.learning.loss_gradient`) uses
    them once for ``Z`` and ``Z+`` together: H on both state blocks, and
    Gtilde once on the input the augmented map holds, so one forward and
    one backward per step.

    ``x_scale`` / ``u_scale`` premultiply incoming coordinates and the
    fixed-head rows are divided by ``x_scale`` again, so a dictionary
    trained on scaled data can be rebased to original coordinates as a
    pure basis change (see :meth:`with_input_scaling`).
    """

    def __init__(self, *, kind: str, state_dim: int, input_dim: int, s: int, l: int,
                 fixed_head: Sequence[int], h_net, g_net, theta: Array, spec: dict,
                 x_scale=None, u_scale=None):
        self.kind = kind
        self.fixed_head = tuple(int(i) for i in fixed_head)
        self.theta = theta
        self.spec = dict(spec)
        self.x_scale = np.ones(state_dim) if x_scale is None else np.asarray(x_scale, float)
        self.u_scale = np.ones(input_dim) if u_scale is None else np.asarray(u_scale, float)
        self._nets = _Nets(h_net, g_net, self.fixed_head, self.x_scale, self.u_scale, s, l)
        head_names = tuple(f"x{i + 1}" for i in self.fixed_head)
        free_names = tuple(f"{kind}{j + 1}" for j in range(l - len(self.fixed_head)))
        H = StateDictionary(dim=l, fn=self._nets.eval_H, names=head_names + free_names,
                            domain_dim=state_dim)
        Gt = None
        if s > l:
            Gt = InputMatrixFunction(rows=s - l, cols=l, fn=self._nets.eval_Gt,
                                     domain_dim=input_dim)
        super().__init__(H, Gt, state_dim, input_dim)

    # -- parameter vector --------------------------------------------

    @property
    def n_params(self) -> int:
        return self.theta.size

    def get_params(self) -> Array:
        """A copy of the parameter vector."""
        return self.theta.copy()

    def set_params(self, vec) -> None:
        """Overwrite the parameter vector, in place, with ``vec`` of ``n_params`` entries."""
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.size != self.theta.size:
            raise DimensionMismatch(f"expected {self.theta.size} parameters, got {vec.size}")
        self.theta[...] = vec

    # -- evaluation ---------------------------------------------------

    # One pass of each network, one after the other, so the caches of one
    # are freed before the other runs: ``Z`` may be a whole dataset.  Bound
    # here too, because the benchmark's tracer looks methods up per class.
    eval_aug = NormalDictionary.eval_aug

    def vjp_aug(self, Z: Array, Wbar: Array) -> Array:
        """Gradient of ``sum(Wbar * Phi(Z))`` with respect to the parameters.

        One forward on ``Z`` and one backward of ``Wbar``.  Training does
        not come through here: its step runs the same two functions once
        on ``Z`` and ``Z+`` together.
        """
        fwd = self._nets.forward(*self._split(Z), grad=True)
        return self._nets.backward(fwd, np.asarray(Wbar, dtype=float))

    def with_input_scaling(self, x_scale, u_scale) -> "TrainableNormalDictionary":
        """Rebase onto unscaled coordinates.

        The returned dictionary shares the parameter vector and satisfies
        ``Phi_new(x, u) = D Phi_old(x_scale*x, u_scale*u)`` for the
        invertible block-diagonal ``D`` that resets the fixed head to the
        raw state — a basis change, so the consistency index is unchanged.
        ``x_scale`` has one entry per state coordinate and ``u_scale`` one
        per input, None standing for ones; a scale of another length raises
        :class:`ConfigError` naming it.
        """
        x_scale, u_scale = (np.ones(k) if v is None else json_array(v, key, "input scaling", (k,))
                            for key, v, k in (("x_scale", x_scale, self.state_dim),
                                              ("u_scale", u_scale, self.input_dim)))
        return TrainableNormalDictionary(
            kind=self.kind,
            state_dim=self.state_dim,
            input_dim=self.input_dim,
            s=self.s,
            l=self.l,
            fixed_head=self.fixed_head,
            h_net=self._nets.h_net,
            g_net=self._nets.g_net,
            theta=self.theta,
            spec=self.spec,
            x_scale=x_scale * self.x_scale,
            u_scale=u_scale * self.u_scale,
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
    """The family's network as a layer list, or None when it has no output.

    ``spec`` holds the family's parameters, checked against :data:`FAMILIES`.
    """
    if out_dim == 0:
        return None
    if kind == "polynomial":
        featurize, names = monomial_featurizer(in_dim, spec["total_degree"])
        W = rng.standard_normal((out_dim, len(names))) / np.sqrt(len(names))
        return _DenseNet([(W, None, None, None)], featurize)
    act = _ACTIVATIONS[spec["activation"]]

    def dense(fan_in, fan_out, act=None, skip=None, scale=1.0):
        """One layer: He-initialised weights (divided by ``scale``), zero bias."""
        W = rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in) / scale
        return W, np.zeros(fan_out), act, skip

    if kind == "mlp":
        widths = spec["widths"]
        sizes = [in_dim, *widths]
        return _DenseNet([*(dense(i, o, act) for i, o in zip(sizes, widths)),
                          dense(widths[-1], out_dim)])
    # residual_mlp: each block computes ``y <- y + W2 act(W1 y + b1) + b2``.
    blocks, width = spec["blocks"], spec["width"]
    layers = [dense(in_dim, width)]
    for _ in range(blocks):
        layers.append(dense(width, width, act))
        layers.append(dense(width, width, skip=len(layers) - 1, scale=np.sqrt(blocks)))
    layers.append(dense(width, out_dim))
    return _DenseNet(layers)


def parametric_family(kind: str, *, state_dim: int, input_dim: int, s: int, l: int,
                      **params) -> TrainableNormalDictionary:
    """Construct a trainable normal-form dictionary.

    ``params`` are the family's parameters, checked against its table in
    :data:`FAMILIES` by :func:`check_json`: a key the kind does not take,
    a missing required key, or a value of the wrong type or range raises
    :class:`ConfigError` naming the key.

    Parameters
    ----------
    kind : {"polynomial", "mlp", "residual_mlp"}
        ``polynomial`` uses monomial features up to ``total_degree``
        (entries of both H and Gtilde are polynomials); ``mlp`` uses fully
        connected networks with the given hidden ``widths``;
        ``residual_mlp`` uses ``blocks`` residual blocks of ``width``
        neurons each.  Each kind requires its own parameters and takes no
        other kind's.
    s, l : int
        Augmented and state dictionary dimensions, ``s >= l``.
    fixed_head : "state", list of int, or None
        Distinct state-coordinate indices frozen as the first rows of H, at
        most ``l`` of them.  The default freezes the full state vector, the
        usual practice so that lifted rollouts read states directly off the
        head.
    activation : {"softplus", "relu", "tanh"}
        ``softplus`` (default) keeps the family smooth so that gradient
        checks need no kink avoidance; ``relu`` is the conventional choice
        at larger scale.  The polynomial family takes it but has no
        activation to apply.
    seed : int
        Deterministic parameter initialization, non-negative; default 0.
    """
    if kind == EXAMPLE_POLY_BASIS:
        raise ConfigError(f"{kind!r} is a builtin dictionary, not a parametric family")
    what = "parametric_family"
    spec = check_json(FAMILIES[one_of(FAMILIES, "family kind")(kind, "kind", what)], params, what)
    if s < l or l < 1:
        raise ConfigError(f"need s >= l >= 1, got s={s}, l={l}")
    head = spec.pop("fixed_head")
    head = list(range(state_dim)) if head == "state" else head or []
    if len(head) > l or any(i >= state_dim for i in head):
        raise ConfigError(f"fixed_head {head} must be at most l = {l} distinct state "
                          f"coordinates below {state_dim}")

    rng = np.random.default_rng(spec["seed"])
    h_net = _build_net(kind, state_dim, l - len(head), spec, rng)
    g_net = _build_net(kind, input_dim, (s - l) * l, spec, rng) if s > l else None
    return TrainableNormalDictionary(
        kind=kind,
        state_dim=state_dim,
        input_dim=input_dim,
        s=s,
        l=l,
        fixed_head=head,
        h_net=h_net,
        g_net=g_net,
        theta=_one_vector(h_net, g_net),
        spec=spec,
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
# Dictionary families and files
#
# The tables of :mod:`kooplift._jsonfile`: each maps a key to ``(check,
# default)``, and :func:`~kooplift._jsonfile.check_json` applies them.


def _fixed_head(value, path: str, what: str):
    """``"state"``, None, or a list of distinct indices.

    :func:`parametric_family` checks their range against its dimensions.
    """
    if value is None or isinstance(value, str) and value == "state":
        return value
    head = list_of(integer(0), "integers")(value, path, what)
    if len(set(head)) < len(head):
        raise ConfigError(f"{what}: {path!r} must be distinct state coordinates, got {head}")
    return head


# The parameters every parametric family takes.
_PARAMETRIC = {
    "fixed_head": (_fixed_head, "state"),
    "seed": (integer(0), 0),
    "activation": (one_of(_ACTIVATIONS, "activation"), "softplus"),
}

# kind -> the table of its parameters.  The builtin basis takes only the
# bottom-block rows to drop.
FAMILIES = {
    EXAMPLE_POLY_BASIS: {"truncate": (list_of(string, "strings"), ())},
    "polynomial": {"total_degree": (integer(1), ...), **_PARAMETRIC},
    "mlp": {"widths": (list_of(integer(1), "one or more integers", least=1), ...),
            **_PARAMETRIC},
    "residual_mlp": {"blocks": (integer(1), ...), "width": (integer(1), ...), **_PARAMETRIC},
}


# ----------------------------------------------------------------------
# Serialization


DICTIONARY_FORMAT = "kooplift-dictionary-v1"

_DIMS = {key: (integer(1), ...) for key in ("state_dim", "input_dim", "s", "l")}


def dictionary_to_json(nd: NormalDictionary) -> dict:
    """JSON-ready description of a dictionary: its ``descriptor`` with format and dims."""
    if nd.descriptor is None:
        raise ConfigError("only parametric and builtin dictionaries are serializable")
    dims = {"state_dim": nd.state_dim, "input_dim": nd.input_dim, "s": nd.s, "l": nd.l}
    return {"format": DICTIONARY_FORMAT, "dims": dims, **nd.descriptor}


def _dictionary_table(kind: str) -> dict:
    """The keys of a dictionary file whose family is ``kind``.

    The builtin basis is built from ``truncate`` alone.  A parametric family
    is built from ``dims``, ``fixed_head`` and its other parameters, which
    sit in ``spec``; the lengths of ``parameters``, ``x_scale`` and
    ``u_scale`` follow from the dictionary built.
    """
    if kind == EXAMPLE_POLY_BASIS:
        return {**FILE_KEYS, "dims": (_DIMS, None), **FAMILIES[kind]}
    spec = {key: entry for key, entry in FAMILIES[kind].items() if key != "fixed_head"}
    return {**FILE_KEYS, "dims": (_DIMS, ...), "spec": (spec, ...),
            "fixed_head": (_fixed_head, ...), "parameters": (numeric(None), ...),
            "fixed_head_tags": (list_of(string, "strings"), None),
            "x_scale": (numeric(None), None), "u_scale": (numeric(None), None)}


def dictionary_from_json(obj: dict, what: str = "kooplift dictionary JSON object",
                         path: str = "") -> NormalDictionary:
    """Rebuild a dictionary from :func:`dictionary_to_json` output.

    ``kind`` picks the table, and :func:`check_json` checks the object
    against it: ``format``, ``kind``, then ``truncate`` for the builtin
    basis, or ``dims``, ``spec`` (the family's parameters but
    ``fixed_head``), ``fixed_head``, ``fixed_head_tags``, ``x_scale``,
    ``u_scale`` and ``parameters`` for a parametric family.  ``dims`` and
    ``fixed_head_tags``, written from the dictionary, must agree with the
    dictionary built; a builtin descriptor may leave ``dims`` out.  An
    unknown or missing key, or a value of the wrong type, range or shape,
    raises :class:`ConfigError` naming its path.  A dictionary nested in
    another file (a model's descriptor) passes that file's ``what`` and its
    own ``path`` there, so errors name the key path in that file.
    """
    if not isinstance(obj, dict) or obj.get("format") != DICTIONARY_FORMAT:
        raise ConfigError(f"{what}: {path!r} is not a kooplift dictionary JSON object"
                          if path else "not a kooplift dictionary JSON object")
    prefix = f"{path}." if path else ""
    kind = one_of(FAMILIES, "dictionary kind")(obj.get("kind"), prefix + "kind", what)
    d = check_json(_dictionary_table(kind), obj, what, path)
    if kind == EXAMPLE_POLY_BASIS:
        nd = example_poly_normal_basis(d["truncate"])
    else:
        nd = parametric_family(kind, **d["dims"], fixed_head=d["fixed_head"], **d["spec"])
        nd.set_params(json_array(d["parameters"], prefix + "parameters", what, (nd.n_params,)))
        nd = nd.with_input_scaling(d["x_scale"], d["u_scale"])
    written = dictionary_to_json(nd)
    for key in ("dims", "fixed_head_tags"):  # written from the dictionary, not read
        if d.get(key) is not None:
            equal(written[key])(d[key], prefix + key, what)
    return nd


def save_dictionary(nd: NormalDictionary, path) -> Path:
    return write_json(path, dictionary_to_json(nd))


def load_dictionary(path) -> NormalDictionary:
    """The dictionary in the file at ``path``.

    A file that is missing, not a JSON object or not a dictionary raises
    :class:`ConfigError` whose message starts with the path.
    """
    return read_json(path, "dictionary", dictionary_from_json)

"""The consistency index certifies the worst one-step prediction error.

Truncating rows from an invariant dictionary breaks invariance by
different amounts; the square root of the consistency index measures
each truncation, and its accompanying coefficient vector names the
observable that is hardest to predict.  A Monte Carlo sweep over random
observables confirms that nothing in the span exceeds the certified
error and that the named observable attains it.

Run with ``python3 demos/02_worst_case_certificate.py``.
"""

import warnings

import numpy as np

import kooplift as kl

system = kl.example_poly()
plan = kl.ExperimentPlan(num_experiments=200, steps_per_experiment=10,
                         rng_seed=11)
aug = kl.to_augmented(kl.run_experiments(system, plan))

print("invariance proximity after dropping one input-block row:")
for row in ("x1*u", "u", "u^2", "sin(u)"):
    nd = kl.example_poly_normal_basis(truncate=(row,))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = kl.consistency_index(*nd.eval_pair(aug))
    print(f"  without {row:7s}: {rep.sqrt_index:.4f}")

nd = kl.example_poly_normal_basis(truncate=("u",))
P, Q = nd.eval_pair(aug)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rep = kl.consistency_index(P, Q)
K_F = Q @ np.linalg.pinv(P)


def relative_error(W):
    # one-step relative error of each row of W, in the empirical norm
    W = np.atleast_2d(W)
    num = np.linalg.norm(W @ Q - (W @ K_F) @ P, axis=1)
    return num / np.linalg.norm(W @ Q, axis=1)


cert = relative_error(rep.worst_coeffs)[0]
print(f"\ncertified worst relative error (without u):    {rep.sqrt_index:.6f}")
print(f"error of the certificate observable:           {cert:.6f}")

rng = np.random.default_rng(1)
mc = relative_error(rng.normal(size=(100_000, nd.s)))
print(f"largest error over 100000 random observables:  {np.max(mc):.6f}")
print("random search never reaches the certified worst case; the "
      "certificate names it directly")

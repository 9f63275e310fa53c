"""Correlation pursuit: picking embedding columns that explain the target.

Two informative columns are buried among eight noise columns. Candidates
are ranked by absolute correlation with the autoregression residuals and
added while the corrected AIC keeps falling.

Run: python3 demos/04_feature_selection.py
"""

import numpy as np

from surrocast import Ar1Spec, correlation_pursuit, efficiency_gain

rng = np.random.default_rng(3)
T = 200
x_active = Ar1Spec(2, phi=0.5, scale=6.0).draw(rng, T)
x = np.hstack([x_active, rng.standard_normal((T, 8))])
driver = x_active @ np.array([0.7, -0.2]) + rng.standard_normal(T)
# the target is an AR(2) in the driver: y_t = 0.5 y_{t-1} - 0.3 y_{t-2} + driver_t
y = driver.copy()
for t in range(1, T):
    y[t] += 0.5 * y[t - 1] - (0.3 * y[t - 2] if t > 1 else 0.0)

res = correlation_pursuit(y, x, q_max=4)
print(f"autoregressive order used for the baseline residuals: {res.ar_order}")
print(f"candidate ranking by |correlation|: {res.ranking}")
print(f"accepted columns (truth: 0 and 1): {res.chosen}")
print("criterion path:", np.round(res.aic_path, 4))
if res.rejected_aic is not None:
    print(f"first rejected step would have scored {res.rejected_aic:.4f}")

# The default acceptance threshold is permissive on noisy data; a stricter
# threshold trims marginal columns.
strict = correlation_pursuit(y, x, q_max=4, min_decrease=2.0)
print(f"\nwith min_decrease=2.0 the accepted set shrinks to: {strict.chosen}")

# Unrelated capability, same theme of "what does the surrogate buy you":
# the error-variance ratio from sharing errors with a K-dim surrogate.
print("\ntheoretical efficiency gain for three surrogate periods:")
for rho in (0.1, 0.3, 0.5):
    gain = efficiency_gain(1.0, np.full(3, rho), np.eye(3))
    print(f"  cross-correlation {rho}: x{gain:.3f}")

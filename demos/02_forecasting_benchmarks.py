"""Multi-step forecasts: surrogate-augmented model vs classic benchmarks.

Holds out the last 8 months, forecasts them with the joint model, a pure
autoregression, the random walk, and the historical average, and compares
root mean squared errors.

Run: python3 demos/02_forecasting_benchmarks.py
"""

import numpy as np

from surrocast import (
    FutureExogenous,
    benchmark_dgp,
    fit_arx,
    fit_joint,
    forecast_arx,
    forecast_ave,
    forecast_joint,
    forecast_rw,
    generate,
    select_ar_order,
)

H = 8
total = 60
mp, sp = generate(benchmark_dgp(rho=0.3, T=total), 21)
T = total - H
mp_tr, sp_tr = mp.slice(0, T), sp.slice(0, T)
y_test = mp.y[T:]

# The joint model consumes the future covariate and surrogate paths; the
# benchmarks see history only.
fut = FutureExogenous(mp.z[T:], mp.x[T:], sp.ys[T:])

jf, sf = fit_joint(mp_tr, sp_tr, q1=2, q2=1)
fc_joint = forecast_joint(jf, sf, mp_tr, sp_tr, fut, H)

q_ar = select_ar_order(mp_tr.y, q_max=4)
ar = fit_arx(mp_tr.y, q_ar)
fc_ar = forecast_arx(ar, mp_tr.y, None, H)
fc_rw = forecast_rw(mp_tr.y, H)
fc_ave = forecast_ave(mp_tr.y, H)

print(f"training window: {T} months; holdout: {H} months "
      f"(AR benchmark order {q_ar})\n")
print("  h   truth    joint       AR       RW      AVE")
for h in range(H):
    print(f"{h + 1:>3}  {y_test[h]:+.3f}  "
          f"{fc_joint.point[h]:+.3f}  {fc_ar.point[h]:+.3f}  "
          f"{fc_rw.point[h]:+.3f}  {fc_ave.point[h]:+.3f}")

print("\nroot mean squared error over the holdout:")
for fc in (fc_joint, fc_ar, fc_rw, fc_ave):
    rmse = np.sqrt(np.mean((fc.point - y_test) ** 2))
    print(f"  {fc.method.value:>6}: {rmse:.3f}")

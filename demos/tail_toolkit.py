"""
Tail-index estimation building blocks
=====================================

Tours the smaller tools the clustering algorithm is built from: the
Hill estimator with confidence bands, exact one-dimensional k-means,
the tail k-means baseline, and the Student-t / Frechet distribution
helpers used by the simulators.
"""

# %%
# Hill estimator
# --------------
# For a column with exactly Pareto tails, gamma_hat is the average
# log-ratio of the top k order statistics to the (k+1)-th largest.
# Hill works on whole matrices, so one column is a one-column matrix.
import numpy as np

from tailcluster import DataMatrix, hill_bands, hill_gammas, kmeans_1d_exact, tail_kmeans
from tailcluster.distributions import frechet_quantile, student_t_cdf, student_t_quantile

rng = np.random.default_rng(7)
pareto = rng.uniform(size=5000) ** -0.5  # tail index 0.5
gammas = hill_gammas(DataMatrix(pareto[:, None]), 200)
print(f"Hill estimate: {gammas[0]:.3f} from k=200 top values (true 0.5)")

low, high = hill_bands(gammas, 200, level=0.95)
print(f"95% band: [{low[0]:.3f}, {high[0]:.3f}]")

# %%
# Exact 1-D k-means
# -----------------
# Dynamic programming over the sorted values gives the optimal
# partition, no restarts or tolerance knobs. Groups come back ranked
# heaviest first (largest sum of estimates).
values = np.array([1.0, 1.1, 2.0, 2.1, 0.2])
groups = kmeans_1d_exact(values, 3)
print(f"optimal 3-group split of {values.tolist()}: {groups}")

# %%
# Tail k-means baseline
# ---------------------
# The comparison method: estimate gamma per column with Hill, then
# k-means the estimates. Works when groups are far apart, degrades
# when Hill noise blurs them.
cols = np.column_stack(
    [rng.uniform(size=3000) ** -1.0, rng.uniform(size=3000) ** -0.95,
     rng.uniform(size=3000) ** -0.25]
)
data = DataMatrix(values=cols, column_labels=("a", "b", "c"))
partition = tail_kmeans(data, g=2, k=150)
print(f"tail k-means on columns with gamma (1, 0.95, 0.25): {partition.groups}")

# %%
# Distribution helpers
# --------------------
# Student-t CDF/quantile pairs power the simulation models; they
# round-trip to high accuracy for any df > 0, with closed forms at
# df 1 and 2.
u = np.array([0.2, 0.5, 0.9, 0.999])
for v in (1.0, 2.0, 4.0):
    x = student_t_quantile(u, v)
    back = student_t_cdf(x, v)
    print(f"df={v}: quantile->cdf round trip error {np.max(np.abs(back - u)):.2e}")

print(f"Frechet quantile at u=0.99, gamma=0.5: {frechet_quantile(0.99, 0.5):.4f}")

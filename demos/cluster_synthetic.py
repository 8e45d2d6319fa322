"""
Clustering heavy-tailed columns by extreme value index
======================================================

Draws a synthetic dataset whose columns fall into three groups with
tail indices 1, 0.5 and 0.25, then recovers the grouping two ways:
with the number of groups known in advance, and discovered from the
data. Run it directly; it prints everything it does.
"""

# %%
# Setup
# -----
# A SimModelSpec pins the generator: model "A" draws independent
# heavy-tailed columns, g groups of q columns each, separation delta.
import numpy as np

from tailcluster import (
    SimModelSpec,
    accuracy,
    cluster_known_g,
    cluster_unknown_g,
    generate,
    group_means,
    hill_gammas,
    resolve_params,
)

spec = SimModelSpec(model="A", g=3, q=5, delta=0.5, n=2000, seed=42)
data, truth = generate(spec)
print(f"data: n={data.n} rows, p={data.p} columns")
print(f"true group labels: {truth.group_of.tolist()}")
print(f"true tail indices per group: {truth.gammas.tolist()}")

# %%
# Default tuning parameters
# -------------------------
# The defaults depend only on the column count and the sample size:
# k tail observations per column feed the pooled threshold, the
# (k*+1)-th largest value scales each column, beta sets how many of a
# column's top values must clear the threshold to join a group.
params, _ = resolve_params(p=data.p, n0=data.n)
print(f"defaults: k={params.k}, k*={params.k_star}, beta={params.beta:.4f}")

# %%
# Number of groups known
# ----------------------
# Extraction peels off the heaviest group, rescales the pooled
# threshold to the remaining columns, and repeats g-1 times; the
# leftover columns form the last group.
partition, trace = cluster_known_g(data, params.with_known_g(3))
print(f"known g=3 partition: {partition.groups}")
print(f"accuracy against the design: {accuracy(truth, partition):.3f}")
for step in trace.steps:
    print(f"  threshold {step.threshold:.3f} extracted columns {step.extracted}")

# %%
# Number of groups discovered
# ---------------------------
# The same loop run until no active columns remain. On well separated
# data it stops at the same partition.
auto_partition, auto_trace = cluster_unknown_g(data, params)
print(f"auto-g found {auto_partition.num_groups} groups: {auto_partition.groups}")
print(f"accuracy: {accuracy(truth, auto_partition):.3f}")

# %%
# Group-level tail indices
# ------------------------
# Averaging per-column Hill estimates within each recovered group
# sharpens the individual estimates.
group_gammas, per_column = group_means(hill_gammas(data, params.k), auto_partition)
print(f"estimated group indices: {np.round(group_gammas, 3).tolist()}")
print(f"true group indices:      {truth.gammas.tolist()}")

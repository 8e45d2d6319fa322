"""
From a price table to clustered loss returns
============================================

Walks the real-data path end to end on a small synthetic price table:
read dated prices with gaps, convert to loss returns with listwise
deletion, then cluster the return columns by tail heaviness.
"""

# %%
# A price table with gaps
# -----------------------
# Prices arrive as a CSV whose first column is the date; missing
# quotes may be blank or NA/NaN/ND/null. Two series here are heavy
# tailed, one is light.
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from tailcluster import cluster_unknown_g, resolve_params
from tailcluster.ingest import min_positive_count, read_price_csv, returns

rng = np.random.default_rng(11)
n_days = 600
heavy_a = np.exp(np.cumsum(rng.standard_t(df=1, size=n_days) * 0.01)) * 100
heavy_b = np.exp(np.cumsum(rng.standard_t(df=1, size=n_days) * 0.01)) * 5
light = np.exp(np.cumsum(rng.standard_normal(n_days) * 0.01)) * 40

lines = ["date,alpha,bravo,charlie"]
for i in range(n_days):
    day = (date(2024, 1, 1) + timedelta(days=i)).isoformat()
    a = "" if i % 97 == 13 else repr(float(heavy_a[i]))  # sprinkle missing quotes
    lines.append(f"{day},{a},{float(heavy_b[i])!r},{float(light[i])!r}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = read_price_csv(path)
print(f"read {len(table.dates)} dated rows for series {table.names}")

# %%
# Loss returns
# ------------
# Rows with any missing price are dropped, then loss returns
# -log(P_t / P_{t-1}) are taken between consecutive retained rows.
data = returns(table)
print(f"{data.n} return rows survive listwise deletion")
print(f"columns: {data.column_labels}, positive counts >= {min_positive_count(data)}")

# %%
# Cluster the returns
# -------------------
# Defaults are sized from the smallest per-column count of positive
# returns, since only positive losses carry tail information.
params, _ = resolve_params(data.p, min_positive_count(data))
params.validate_for(data.n, data.p)
partition, _ = cluster_unknown_g(data, params)
named = [[data.label_of(j) for j in grp] for grp in partition.groups]
print(f"groups, heaviest first: {named}")

"""Draw wide_matrix inputs in a process of their own and save them as .npy.

    python perfbench/gen_matrix.py OUT_DIR N G Q DELTA SEED [SEED ...]

Writes OUT_DIR/A_F-<SEED>.npy for each seed. Generation runs apart from
the benchmark process so that its temporaries do not set the peak RSS
that the benchmark reports for the clustering ops.
"""

import sys
from pathlib import Path

import numpy as np
from tailcluster import SimModelSpec, generate


def main(argv) -> None:
    out = Path(argv[0])
    n, g, q = (int(a) for a in argv[1:4])
    delta = float(argv[4])
    for seed in argv[5:]:
        data, _ = generate(SimModelSpec("A_F", g, q, delta, n, int(seed)))
        np.save(out / f"A_F-{seed}.npy", data.values)


if __name__ == "__main__":
    main(sys.argv[1:])

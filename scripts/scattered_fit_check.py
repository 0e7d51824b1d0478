#!/usr/bin/env python3
"""Check the installed `metricgeom holder` on scattered 2-D samples
against a numpy scan of every pair.

    python scripts/scattered_fit_check.py

800 samples uniform over [-1, 1]^2 under l2, mapped smoothly into a range
under l2 snowflaked by 1/2, at order 0.5: the pair search prunes most
node pairs there by their box bounds.  The fit's C and witness must equal
the scan's bit for bit.  The scan takes l2 in the library's max-factored
form, squares added even coordinates first, then odd.  Exits 1 on a
mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np


def l2(V: np.ndarray) -> np.ndarray:
    """l2 norms of the rows of an (m, 2) array, rounded as the library rounds them."""
    top = np.abs(V).max(axis=1)
    U = np.abs(V) / np.where(top > 0.0, top, 1.0)[:, None]
    U *= U
    return top * (U[:, 0] + U[:, 1]) ** 0.5


def main() -> int:
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (800, 2))
    Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2, np.cos(2.0 * X[:, 1])])
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, name) for name in ("domain.json", "range.json")]
        for path, P in zip(paths, (X, Y)):
            with open(path, "w") as f:
                json.dump({"params": list(range(len(P))), "points": P.tolist()}, f)
        out = subprocess.run(["metricgeom", "holder", *paths, "--d1", "lp:2",
                              "--d2", "lp:2:snow:0.5", "--alpha", "0.5"],
                             capture_output=True, text=True, check=True).stdout
    fit = json.loads(out)
    i, j = np.triu_indices(len(X), k=1)
    ratio = l2(Y[i] - Y[j]) ** 0.5 / l2(X[i] - X[j]) ** 0.5
    k = int(np.argmax(ratio))
    want = (float(ratio[k]), [int(i[k]), int(j[k])])
    if (fit["C"], fit["witness"]) != want:
        print(f"fit {out.strip()} differs from the all-pairs scan: C, witness = {want}")
        return 1
    print(f"C and witness match the all-pairs scan: {want}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

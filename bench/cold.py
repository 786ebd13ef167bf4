"""Cold start: a fresh interpreter imports opnorm and answers its first certified_bound.

    python3 bench/cold.py <src dir> <seed>

Prints {"setup_s": ..., "calib_ms": ...}.  ``setup_s`` is the import time
plus the time of one ``certified_bound`` at p = 3 on a small seeded complex
matrix, generated with numpy outside both timings.  ``calib_ms`` is the
median of a few runs of the calibration kernel in the same interpreter,
afterwards, so the caller can tell a slow program from a slow host.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

COLD_N = 8
COLD_P = 3.0
CALIB_RUNS = 15

src, seed = sys.argv[1], int(sys.argv[2])
start = time.perf_counter()
sys.path.insert(0, src)
import opnorm  # noqa: E402
import opnorm.cli  # noqa: E402

imported = time.perf_counter() - start

import numpy as np  # noqa: E402  (already loaded by opnorm)

from calibration import Calibration  # noqa: E402

rng = np.random.default_rng([seed, 0xC01D])
A = rng.standard_normal((COLD_N, COLD_N)) + 1j * rng.standard_normal((COLD_N, COLD_N))
start = time.perf_counter()
b = opnorm.certified_bound(A, COLD_P)
answered = time.perf_counter() - start
if not 0.0 < float(b.lower) <= float(b.upper):
    sys.exit(f"cold certified_bound returned [{b.lower}, {b.upper}]")
calibration = Calibration()
calib = statistics.median(calibration.measure() for _ in range(CALIB_RUNS))
print(json.dumps({"setup_s": imported + answered, "calib_ms": calib}))

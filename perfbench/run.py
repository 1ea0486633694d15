"""Entry point of the teatpose benchmark.

    python3 perfbench/run.py --workload frame-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ./src, built
from source, never from an installed copy. BLAS/OpenMP threads are capped at
one before numpy loads. The last line of standard output is the result
object; the line before it holds the run's detail record.
"""

import os
import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "teatpose" / "__init__.py").is_file():
        print(f"teatpose sources not found under {src}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(here), str(src)]
    import bench

    return bench.main(sys.argv[1:], import_s=time.perf_counter() - t0)


if __name__ == "__main__":
    sys.exit(main())

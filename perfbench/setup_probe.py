"""One set-up, timed in a fresh interpreter: import, config, init_params.

Prints ``{"setup_s": ..., "setup_wall_s": ..., "reference_cpu_s": ...}``:
the CPU and wall seconds of set-up, then the mean CPU seconds of a few
passes of the reference kernel (``reference.py``) run right after it, in the
same spell of machine speed. The benchmark runs this several times per run
and reports as ``setup_s`` the median of set-up over reference, scaled to
seconds at the reference's nominal speed. Interpreter start-up itself is
not counted, imports are.

    PYTHONPATH=src python3 perfbench/setup_probe.py RUN_CFG NETWORK(0|1)
"""

import time

START = time.perf_counter()
START_CPU = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402,F401
from instrumentid import analysis, baselines, dataset, features, metrics  # noqa: E402,F401
from instrumentid import training  # noqa: E402
from instrumentid.config import load_config  # noqa: E402

REFERENCE_PASSES = 5


def main(argv) -> int:
    cfg = load_config(argv[0])
    cfg.validate()
    if argv[1] == "1":
        specs, input_length = training.architecture(cfg)
        training.init_params(specs, input_length, seed=cfg.train_seed)
    setup_s, setup_wall_s = time.process_time() - START_CPU, time.perf_counter() - START
    import reference  # after the measurement: not part of set-up
    reference.reference_cpu_s()  # warm-up: FFT plans, BLAS buffers
    passes = [reference.reference_cpu_s() for _ in range(REFERENCE_PASSES)]
    print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                      "reference_cpu_s": sum(passes) / len(passes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

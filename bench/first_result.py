"""Set-up probe: a fresh interpreter imports zenodense and makes the
workload's first and smallest call, then prints time.perf_counter().

Run by run.py as `python3 bench/first_result.py <root> <workload> <seed>`.
perf_counter reads CLOCK_MONOTONIC, which every process on the machine
shares, so the parent subtracts the instant it started this process.
"""

import os
import sys
import time

root = os.path.abspath(sys.argv[1])
workload = sys.argv[2]
seed = int(sys.argv[3]) % (1 << 63)  # any workload seed gives a valid master seed
sys.path.insert(0, os.path.join(root, "src"))

import zenodense  # noqa: E402  (verifies the Pauli table, builds the decode tables)
from zenodense import cli, protocol, zeno  # noqa: E402

if not os.path.abspath(zenodense.__file__).startswith(os.path.join(root, "src") + os.sep):
    sys.exit(f"zenodense was imported from {zenodense.__file__}, not from this checkout")

if workload == "mc-session":
    protocol.simulate(zenodense.AnalyzerKind.DQZ, 12, 1, seed)
elif workload == "sweep-grid":
    out = os.path.join(root, ".bench_out", f"first-{os.getpid()}.csv")
    code = cli.main(["sweep", "--analyzer=dqz", "--n-min=2", "--n-max=2", "--shots=1",
                     f"--seed={seed}", "--out", out])
    os.remove(out)
    if code != 0:
        sys.exit(f"sweep exited with {code}")
else:
    zeno.dqz_element_sim(zenodense.BellState.PHI_PLUS.ket(), 1)
print(repr(time.perf_counter()))

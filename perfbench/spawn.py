"""Start and reap the benchmark's children from a process that stays small.

    python3 perfbench/spawn.py      # started by run.py, one per run

On Linux a child's peak RSS (``ru_maxrss``) starts from its parent's
peak at ``exec``. ``run.py`` holds the references and the checked
results, so a child it started directly would report the larger of its
own peak and run.py's. This process only starts children, so their
reported peak is their own.

Reads one JSON request per stdin line, ``{"argv", "pythonpath", "cwd",
"stdout", "stderr", "timeout"}``. It runs that child to completion,
killing it after ``timeout`` seconds, and writes one JSON line back,
``{"seconds", "maxrss_kb", "returncode", "probes", "probe_mean_s",
"probe_sum_s"}``. The time runs from spawn to reap. It exits at the end
of its input.

While the child runs, a thread times a small fixed job, the speed probe,
every ``PROBE_INTERVAL_S``: ``probes`` is how many times it ran,
``probe_mean_s`` its mean time and ``probe_sum_s`` the total. The
benchmark pins itself and its children to one CPU, so the probe runs on
the child's CPU and measures the host's speed there during the call;
``run.py`` divides the call's time by it.
"""

import json
import os
import subprocess
import sys
import threading
import time

# The speed probe: a fixed pure-Python job of dict lookups and string
# methods, the kind of work the classifier does, about 0.2 ms long.
# Sampled every 20 ms it takes about 1% of the CPU from the child.
# PROBE_REFERENCE_S is its typical time in the sampler on the host the
# benchmark was calibrated on (2 vCPUs, Python 3.11.7); it only sets the
# scale of normalised times, which read as seconds on that host.
PROBE_LOOPS = 1_000
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 180e-6
_PROBE_KEYS = ["name%d" % i for i in range(4096)]
_PROBE_TABLE = {key: key.upper() for key in _PROBE_KEYS}


def probe() -> float:
    """Seconds the speed probe takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += len(_PROBE_TABLE[_PROBE_KEYS[i & 4095]].lower())
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Times the probe every PROBE_INTERVAL_S until stopped."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.probes: list[float] = []

    def run(self) -> None:
        self.probes.append(probe())
        while not self.halt.wait(PROBE_INTERVAL_S):
            self.probes.append(probe())

    def stop(self) -> list[float]:
        self.halt.set()
        self.join()
        return self.probes


def run(request: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(request["pythonpath"])
    env["PYTHONHASHSEED"] = "0"
    env.pop("NAMECENSUS_CACHE", None)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        sampler = SpeedSampler()
        start = time.perf_counter()
        sampler.start()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=env,
                                cwd=request["cwd"])
        killer = threading.Timer(request["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
        probes = sampler.stop()
    return {"seconds": seconds, "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode,
            "probes": len(probes), "probe_mean_s": sum(probes) / len(probes),
            "probe_sum_s": sum(probes)}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

"""One cold launch: import, build and serve one request in a fresh
interpreter, as a one-shot ``python -m repro solve|query|grid`` does.

    python3 perfbench/cold.py WORKLOAD REQUEST_JSON KNOWN_JSON

``KNOWN_JSON`` holds just the answers this request is checked against,
so loading them costs nothing inside the launch.  Prints one JSON line
of ``time.perf_counter()`` stamps (the system-wide monotonic clock on
Linux, so the parent can subtract its own launch stamp) and the check
verdict.
"""

import time

T_MAIN = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    workload, req, known = (sys.argv[1], json.loads(sys.argv[2]),
                            json.loads(sys.argv[3]))
    t_main = time.perf_counter()
    program = wl.load(workload)
    t_imported = time.perf_counter()
    built = program.build(req)
    t_built = time.perf_counter()
    answer, _keep = program.serve(built, req)
    t_answered = time.perf_counter()
    problem = wl.check(workload, req, answer, known)
    t_checked = time.perf_counter()
    print(json.dumps({"t_start": T_MAIN, "t_main": t_main,
                      "t_imported": t_imported, "t_built": t_built,
                      "t_answered": t_answered, "t_checked": t_checked,
                      "problem": problem}))


if __name__ == "__main__":
    main()

"""Maintain and cross-check the benchmark's pinned default-seed outputs.

``python3 perfbench/check_outputs.py write``
    Recompute every workload's default-seed outputs through the unserved
    path (each tenant alone on a fresh cache; each instance solved and
    validated) and write ``perfbench/expected.json``.  Run it only when
    a change is meant to alter results.

``python3 perfbench/check_outputs.py hashseeds [WORKLOAD ...]``
    Run the benchmark on the default seed under ``PYTHONHASHSEED`` 0 and
    1.  Each run compares its outputs with ``expected.json``, so both
    passing means the outputs do not depend on the hash seed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def write_expected() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads as wl

    seed = wl.DEFAULT_SEED
    expected = {}
    for name in wl.WORKLOADS:
        outputs = {}
        for input_set in range(wl.INPUT_SETS[name]):
            if name != "solve":
                outputs.update(wl.serve_reference(wl.fleet(name, seed, input_set)))
                continue
            rep = wl.solve_rep(seed, input_set)
            if rep.errors:
                print(f"solve failed its checks: {rep.errors}", file=sys.stderr)
                return 1
            outputs.update(rep.outputs)
        expected[name] = {
            op: {k: v for k, v in out.items() if k in wl.PINNED_FIELDS}
            for op, out in outputs.items()
        }
        print(f"{name}: {len(expected[name])} operations", file=sys.stderr)
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def hashseeds(names) -> int:
    status = 0
    for name in names:
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            print(f"{name} PYTHONHASHSEED={hashseed}: {'ok' if ok else 'FAILED'}")
            if not ok:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv) -> int:
    if argv[:1] == ["write"]:
        return write_expected()
    if argv[:1] == ["hashseeds"]:
        return hashseeds(argv[1:] or ["serve_uniform", "serve_bursty", "park", "solve"])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Self-check of the benchmark harness on tiny cases (a few seconds, no long runs).

    python3 perfbench/selfcheck.py

Shows that the pin check rejects a wrong a_e, that a timed-out or wrongly
exiting case is counted as failed, and that seeds change the problem text
but not the pinned answers.  Exits 1 if any check fails.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import run
from cases import CUSP, Case, Pins, problem_text

SNC = Case("snc-p3-tiny", 3, ("x", "y"),
           ("product", [("pair", [[(1, (1, 0))]], Fraction(1, 2)),
                        ("pair", [[(1, (0, 1))]], Fraction(1, 2))]),
           "signature", ("--emax", "2", "--method", "linear"),
           Pins(d=2, a_e=(4, 25)))
CUSP5 = Case("cusp-p5-tiny", 5, ("a", "b"), ("pair", [CUSP], Fraction(1, 2)), "signature",
             ("--emax", "2"), Pins(d=2, a_e=(7, 117)))


def main() -> int:
    if not (run.SRC / "fsig" / "cli.py").is_file():
        print(f"selfcheck: no fsig sources under {run.SRC}", file=sys.stderr)
        return 2
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT))
    results = []

    def expect(label: str, ok: bool, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + str(detail) if detail else ''}")

    def outcome(case: Case, timeout: float = 30.0, text=None):
        path = workdir / f"{case.name}.fsig"
        path.write_text(text or problem_text(case, random.Random(0)), encoding="utf-8")
        return run.run_case(case, path, workdir, timeout), path

    try:
        good, _ = outcome(SNC)
        expect("correct pins accepted", good.failure is None, good.failure)

        wrong = replace(SNC, pins=replace(SNC.pins, a_e=(4, 26)))
        got, _ = outcome(wrong)
        expect("wrong a_e rejected", got.failure is not None and "a_2 = 25 != 26" in got.failure,
               got.failure)

        slow, _ = outcome(CUSP5, timeout=0.001)
        expect("timeout kills the case and fails it", slow.failure == "timed out",
               slow.failure)

        broken, _ = outcome(SNC, text=problem_text(SNC, random.Random(0)).replace(
            "signature", "nonsense"))
        expect("unexpected exit code fails the case",
               broken.failure is not None and broken.failure.startswith("exit 1:"),
               broken.failure)

        tally = run.Tally()
        for item in (good, got, slow, broken):
            tally.record("tally", item.failure)
        expect("failures counted against attempts", (tally.failed, tally.attempted) == (3, 4))

        texts = {problem_text(CUSP5, random.Random(seed)) for seed in range(6)}
        seeded = [outcome(CUSP5, text=text)[0] for text in sorted(texts)]
        expect("seeds rescale coefficients, pins still hold",
               len(texts) > 1 and all(o.failure is None for o in seeded),
               f"{len(texts)} distinct texts")

        sys.path.insert(0, str(run.SRC))
        _, path = outcome(CUSP5)
        run.CASE_TIMEOUT_S = 0.001
        tally = run.Tally()
        run.run_inprocess(CUSP5, path, tally)
        expect("in-process timeout fails the case", tally.failed == 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} self-checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

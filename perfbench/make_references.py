"""Record the reference outputs the benchmark checks its ops against.

    python3 perfbench/make_references.py SEED [SEED ...]

For each seed and workload, runs every distinct op once, in process and
untimed, and stores its checked output in ``perfbench/references.json``
(merging with seeds already there): the five scores per pooled triple for
``score-2d`` and ``score-3d``, the five scores the ``metrics`` command writes
per pooled phantom for ``cli-pipeline``, and the ConvLSTM digest for
``kernels``.  Record references only at a commit whose outputs are trusted;
a later commit whose outputs move beyond the tolerances fails the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seeds", nargs="+", type=int)
    args = p.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import dcemetrics.cli as cli
    import workloads

    refs = json.loads(workloads.REFERENCES.read_text()) if workloads.REFERENCES.is_file() else {}
    for name, w in workloads.make_workloads(ROOT).items():
        for seed in args.seeds:
            w.setup(seed)
            w.references = None
            try:
                if name == "kernels":
                    out = w.summary(0, w.op(0))
                    problem = w.check(0, out, [out])
                    value = {"convlstm": out["convlstm"]}
                elif name == "cli-pipeline":
                    value, problem = [], None
                    for k in range(w.pool):
                        for i, argv in enumerate(w.commands(k), start=k * w.per_pass):
                            with contextlib.redirect_stdout(io.StringIO()):
                                code = cli.main(argv)
                            out = w.summary(i, (code, 0.0))
                            problem = problem or w.check(i, out, [])
                            if "scores" in out:
                                value.append(out["scores"])
                else:
                    value = [w.summary(k, w.op(k)) for k in range(w.pool)]
                    problem = next(filter(None, (w.check(k, v, value) for k, v in enumerate(value))),
                                   None)
            finally:
                w.teardown()
            if problem:
                raise SystemExit(f"{name} seed {seed}: {problem}")
            refs.setdefault(name, {})[str(seed)] = value
            print(name, seed, flush=True)
    ordered = {name: dict(sorted(v.items(), key=lambda kv: int(kv[0]))) for name, v in refs.items()}
    workloads.REFERENCES.write_text(json.dumps(ordered, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""scipy.ndimage loads on first use, not with the package.

Importing ``scipy.ndimage`` costs about 0.4 s, more than the rest of the
package import, so only the two routines that call it import it: the
distance transform and the phantom's motion shift.  Each check runs in a
fresh interpreter: this test process loaded scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dcemetrics.io import make_report, write_report, write_tensor
from dcemetrics.metrics import EvalParams, evaluate_triple
from dcemetrics.phantom import PhantomSpec, Region, generate, make_triple

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: a JSON list of CLI argument lists; prints, as its last line, whether
# scipy.ndimage is loaded after each import and after each command, with the
# command's exit code
PROBE = """
import json, sys
loaded = lambda: "scipy.ndimage" in sys.modules
import dcemetrics
seen = [loaded()]
import dcemetrics.cli
seen.append(loaded())
for argv in json.loads(sys.argv[1]):
    code = dcemetrics.cli.main(argv)
    seen.append([code, loaded()])
print(json.dumps(seen))
"""

# the SSIM family on two arrays, whose windowed moments are matrix products
SCORE_PROBE = """
import json, sys
import numpy as np
from dcemetrics.metrics import ms_ssim, ssim
rng = np.random.default_rng(3)
x, y = rng.uniform(0, 255, (2, 64, 64))
ssim(x, y)
ms_ssim(x, y)
print(json.dumps(["scipy.ndimage" in sys.modules]))
"""


def _probe(*commands, code=PROBE) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _spec(motion=0.0) -> PhantomSpec:
    return PhantomSpec(
        grid=(24, 24),
        regions=(
            Region(center=(8.0, 8.0), radii=(4.0, 4.0), baseline=80.0),
            Region(center=(16.0, 15.0), radii=(5.0, 4.0), baseline=60.0, amplitude=100.0,
                   onset=0.5),
        ),
        n_frames=5,
        background=20.0,
        noise_sigma=2.0,
        motion=motion,
        seed=11,
    )


def _spec_file(path, spec) -> str:
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def _triple_files(tmp_path) -> dict:
    spec = _spec()
    paths = {}
    for name, arr in zip(("content", "style", "generated"), make_triple(spec, 0, 4)):
        paths[name] = str(tmp_path / f"{name}.raw")
        write_tensor(paths[name], arr)
    paths["seq"] = str(tmp_path / "seq.raw")
    write_tensor(paths["seq"], generate(spec).sequence.frames, axis_order="TYX")
    return paths


def test_package_import_leaves_ndimage_unloaded():
    assert _probe() == [False, False]


def test_ssim_and_ms_ssim_leave_ndimage_unloaded():
    assert _probe(code=SCORE_PROBE) == [False]


def test_commands_that_never_call_ndimage_leave_it_unloaded(tmp_path):
    spec_file = _spec_file(tmp_path / "spec.json", _spec(motion=0.0))
    phantom_dir = tmp_path / "phantom"
    content, style, generated = make_triple(_spec(), 0, 4)
    seq = generate(_spec()).sequence
    report = make_report([evaluate_triple(generated, content, style, seq, EvalParams())])
    reports = [str(tmp_path / f"r{i}.json") for i in range(2)]
    for path in reports:
        write_report(path, report)
    commands = [
        ["phantom", "gen", "--spec", spec_file, "--out-dir", str(phantom_dir)],
        ["cemask", "--seq", str(phantom_dir / "sequence.raw"),
         "--out", str(tmp_path / "mask.raw")],
        ["report", "merge", *reports, "--out", str(tmp_path / "merged.json")],
        ["gradcheck", "--seed", "5", "--out", str(tmp_path / "grad.json")],
    ]
    assert _probe(*commands) == [False, False] + [[0, False]] * len(commands)


@pytest.mark.parametrize("command", ["distmap", "metrics", "phantom gen with motion"])
def test_commands_that_call_ndimage_load_it(command, tmp_path):
    if command == "distmap":
        mask = str(tmp_path / "mask.raw")
        write_tensor(mask, generate(_spec()).truth_mask.mask.astype(float))
        argv = ["distmap", "--mask", mask, "--out", str(tmp_path / "w.raw")]
    elif command == "metrics":
        p = _triple_files(tmp_path)
        argv = ["metrics", "--generated", p["generated"], "--content", p["content"],
                "--style", p["style"], "--seq", p["seq"], "--out", str(tmp_path / "r.json")]
    else:
        spec_file = _spec_file(tmp_path / "spec.json", _spec(motion=0.5))
        argv = ["phantom", "gen", "--spec", spec_file, "--out-dir", str(tmp_path / "out")]
    assert _probe(argv) == [False, False, [0, True]]

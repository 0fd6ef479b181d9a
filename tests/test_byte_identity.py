"""Artifacts stay byte-identical across commits unless a change means to
move them.

test_10_reproducibility and test_execute_run_is_deterministic hold
determinism within one tree.  This test holds the bytes of short runs of
the benchmark's three configs, and the text `neckdown verify` prints,
against the SHA-256 digests committed in byte_identity.json:

- relax: P = 1, dt = 1e-5 to t = 0.02 from steady-perturbed-poly:0.05;
- pinch: P = 4, dt = 1e-5 from steady-perturbed-poly:1.2 to the 1e-3
  floor, with its checkpoint;
- artifacts: the benchmark's artifacts config (n = 801, every snapshot and
  flux row) for 200 steps at seed 1, whole and split at step 100 through
  --checkpoint / --restore.

A change that moves bits on purpose rewrites the table in the same change,

    PYTHONPATH=src python tests/test_byte_identity.py

which prints the names of the digests it changed, added and removed, and
names the moved files.  The digests hold for one build of numpy and
scipy, whose BLAS kernels use FMA; the table records the versions that
wrote it, and a failure names them beside the versions running.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

from neckdown.cli import main

TABLE = Path(__file__).resolve().parent / "byte_identity.json"

ARTIFACTS = [
    "run", "--pressure", "1.5", "--epsilon", "1e-2", "--n", "801", "--dt", "1e-4",
    "--output-every", "1", "--flux-diagnostics", "--ic", "steady-perturbed-random:0.02",
    "--seed", "1",
]


def runs(root: Path) -> list[list[str]]:
    """The command lines of the runs, each writing under root."""
    mid = str(root / "artifacts" / "mid.json")
    return [
        ["run", "--pressure", "1", "--dt", "1e-5", "--t-final", "0.02",
         "--ic", "steady-perturbed-poly:0.05", "--out-dir", str(root / "relax")],
        ["run", "--pressure", "4", "--dt", "1e-5", "--ic", "steady-perturbed-poly:1.2",
         "--out-dir", str(root / "pinch"), "--checkpoint", str(root / "pinch" / "end.json")],
        ARTIFACTS + ["--t-final", "0.02", "--out-dir", str(root / "artifacts" / "whole")],
        ARTIFACTS + ["--t-final", "0.01", "--out-dir", str(root / "artifacts" / "first"),
                     "--checkpoint", mid],
        ARTIFACTS + ["--t-final", "0.02", "--out-dir", str(root / "artifacts" / "second"),
                     "--restore", mid],
    ]


def _main(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return out.getvalue()


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file the runs write under root, by relative path,
    and of the text `neckdown verify` prints, as verify.txt."""
    for argv in runs(root):
        _main(argv)
    found = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*") if path.is_file()
    }
    found["verify.txt"] = hashlib.sha256(_main(["verify"]).encode()).hexdigest()
    return dict(sorted(found.items()))


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def test_artifacts_match_the_committed_digests(tmp_path):
    table = json.loads(TABLE.read_text())
    want, got = table["digests"], digests(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (
        f"moved: {', '.join(moved)}; the table was written with {table['versions']}, "
        f"this is {versions()}"
    )


if __name__ == "__main__":
    old = json.loads(TABLE.read_text())["digests"] if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": versions(), "digests": digests(Path(tmp))}
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    new = table["digests"]
    print(f"wrote {len(new)} digests to {TABLE}", file=sys.stderr)
    for label, names in (
        ("changed", [name for name in new if name in old and new[name] != old[name]]),
        ("added", [name for name in new if name not in old]),
        ("removed", [name for name in old if name not in new]),
    ):
        print(f"{label}: {', '.join(names) or 'none'}", file=sys.stderr)

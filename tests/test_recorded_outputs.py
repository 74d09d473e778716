"""The bench's recording pass writes the same bytes as when the manifest
was made.

For each workload at one seed, the test builds the corpus with the bench's
own generator, writes its inputs and `config.json` as `bench/run.py` does,
and runs `bench/worker.py record` in a fresh interpreter (the worker
replaces `cli._build_backend` and never puts it back). It then compares
the SHA-256 of every `record_out/` file, of `fixture.json` (one key per
request, so every rendered prompt) and of `record.json` with the manifest.

A change that means to alter an output rewrites the manifest with
`python tests/test_recorded_outputs.py` and says which files changed.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MANIFEST = Path(__file__).resolve().parent / "fixtures" / "record_manifest.json"
WORKLOADS = ("verify", "loop", "synth-score")
SEED = 7001


def record_digests(name: str, work: Path) -> dict[str, str]:
    """Runs the recording pass of workload `name` in `work` (made here) and
    returns the SHA-256 of each output, keyed by its path under `work`."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    wl = importlib.import_module("workloads").BY_NAME[name]
    work.mkdir(parents=True)
    wl.write_inputs(wl.build(SEED), work)
    (work / "config.json").write_text(
        json.dumps({"backend": {"type": "scripted", "fixture": str(work / "fixture.json")}})
    )
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "record", name, str(SEED), str(work)],
        env=dict(os.environ, PYTHONHASHSEED="0"),
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    files = [work / "fixture.json", work / "record.json", *(work / "record_out").rglob("*")]
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(files)
        if p.is_file()
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_recording_pass_matches_the_manifest(name, tmp_path):
    expected = json.loads(MANIFEST.read_text())[name]
    got = record_digests(name, tmp_path / name)
    changed = sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))
    assert not changed, f"{len(changed)} outputs differ from the manifest: {changed[:10]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        manifest = {name: record_digests(name, Path(tmp) / name) for name in WORKLOADS}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
